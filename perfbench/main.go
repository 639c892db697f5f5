// Command perfbench is the repository's end-to-end benchmark. One
// command runs one of two workloads, checks the system's outputs, and
// prints every end-to-end metric (or, with --trace 1, every per-layer
// metric) by name and unit with failed/attempted counts:
//
//	city     back-to-back city.Full simulations at 2 shards (netsim)
//	gateway  closed-loop HTTP through the live §3.2 gateway ASP on the
//	         in-process 3-daemon testbed (engine, planprt, rtnet); its
//	         traced run adds an adaptation phase — rollouts and
//	         gateway-policy switches through /deploy under background
//	         HTTP (front end, planprt cache, planpd, fleet, HTTP)
//
// The last line of standard output is one JSON object; the lines
// before it are the human-readable report. See NOTES.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload.
// What an "op" is depends on the workload (see NOTES.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_peak_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"op_tail_us", "us"},
}

// perLayer are the metrics a traced run reports. A layer a workload
// does not exercise reads 0.
var perLayer = []metricDef{
	{"netsim.cpu_share", "%"}, {"netsim.events", "count"}, {"city.served_ratio", "ratio"},
	{"engine.cpu_share", "%"}, {"engine.invoke_ns", "ns"},
	{"planprt.cpu_share", "%"}, {"planprt.cache_hits", "count"}, {"planprt.cache_misses", "count"},
	{"frontend.cpu_share", "%"}, {"frontend.parse_us", "us"}, {"frontend.typecheck_us", "us"},
	{"frontend.verify_us", "us"}, {"frontend.codegen_us", "us"},
	{"rtnet.cpu_share", "%"}, {"rtnet.remote_send_share", "%"}, {"rtnet.remote_read_share", "%"},
	{"syscall_share", "%"}, {"rtnet.path_us", "us"},
	{"rtnet.node_drops", "count"}, {"rtnet.link_drops", "count"}, {"rtnet.fault_drops", "count"},
	{"rtnet.codec_rejected", "count"}, {"rtnet.reconnects", "count"},
	{"control.cpu_share", "%"}, {"planpd.health_ms", "ms"}, {"planpd.stage_ms", "ms"},
	{"planpd.activate_ms", "ms"}, {"fleet.self_ms", "ms"},
	{"adapt.rollout_p50_ms", "ms"}, {"adapt.rollout_p99_ms", "ms"},
	{"adapt.switch_p50_ms", "ms"}, {"adapt.switch_p99_ms", "ms"},
	{"planpd.swap_lost_per_switch", "count"}, {"gw.physical_src_responses", "count"},
	{"runtime.gc_cpu_share", "%"}, {"runtime.allocs_per_op", "count"}, {"runtime.sched_share", "%"},
	{"gc.cpu_share", "%"}, {"bench.cpu_share", "%"}, {"other.cpu_share", "%"},
	{"trace.overhead_pct", "%"},
	{"adapt.netsim.cpu_share", "%"}, {"adapt.engine.cpu_share", "%"}, {"adapt.planprt.cpu_share", "%"},
	{"adapt.frontend.cpu_share", "%"}, {"adapt.rtnet.cpu_share", "%"}, {"adapt.control.cpu_share", "%"},
	{"adapt.bench.cpu_share", "%"}, {"adapt.gc.cpu_share", "%"}, {"adapt.sched.cpu_share", "%"},
	{"adapt.other.cpu_share", "%"},
}

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// result is what one run reports.
type result struct {
	correct   bool
	attempted int64
	failed    int64
	ops       int64   // operations of the last phase (allocs/op base)
	tracedP50 float64 // op_p50_us of the traced phase
	e2e       map[string]float64
	layer     map[string]float64
	notes     []string
}

func newResult(setup float64) *result {
	return &result{correct: true, e2e: map[string]float64{"setup_s": setup}, layer: map[string]float64{}}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// phaseFunc runs one measured phase of a workload for the configured
// time.
type phaseFunc func() (phaseStats, error)

// measure runs the untraced phase that end-to-end metrics come from.
// With tracing, a second, traced phase follows under the CPU profiler
// and the span recorder (nil when the workload has no control plane);
// its layer metrics, and its slowdown against the untraced phase, go
// into res.layer.
func measure(o options, res *result, spans *spanRecorder, phase phaseFunc) error {
	win := openWindow()
	ps, err := phase()
	win.close()
	if err != nil {
		return err
	}
	res.e2e["heap_peak_mb"] = win.heapMB()
	res.e2e["ops_per_s"] = ps.rate
	res.e2e["op_p50_us"] = ps.p50
	res.e2e["op_tail_us"] = ps.tail
	p99 := "n/a (too few samples)"
	if ps.p99 > 0 {
		p99 = fmt.Sprintf("%.6g us", ps.p99)
	}
	res.note("%.6g ops/s; latency p50 %.6g us, p%.4g %.6g us, p99 %s over %d sampled ops",
		ps.rate, ps.p50, 100*ps.tailQ, ps.tail, p99, ps.n)
	if !o.trace {
		return nil
	}
	for _, m := range perLayer {
		res.layer[m.name] = 0
	}
	prof, err := startProfile()
	if err != nil {
		return err
	}
	if spans != nil {
		spans.on.Store(true)
	}
	twin := openWindow()
	ts, err := phase()
	twin.close()
	if spans != nil {
		spans.on.Store(false)
	}
	attr, perr := prof.stop()
	if err != nil {
		return err
	}
	if perr != nil {
		return perr
	}
	for _, l := range layers {
		name := l + ".cpu_share"
		if l == "sched" {
			name = "runtime.sched_share"
		}
		res.layer[name] = attr.layer[l]
	}
	for name, v := range attr.cross {
		res.layer[name] = v
	}
	if twin.busyCPU > 0 {
		res.layer["runtime.gc_cpu_share"] = 100 * twin.gcCPU / twin.busyCPU
	}
	res.layer["runtime.allocs_per_op"] = perOp(int64(twin.allocs), res.ops)
	res.layer["trace.overhead_pct"] = 100 * (ps.rate - ts.rate) / ps.rate
	res.tracedP50 = ts.p50
	res.note("traced phase: %.6g ops/s, latency p50 %.6g us (tracing overhead %.2f%% of ops/s), %d profile samples",
		ts.rate, ts.p50, res.layer["trace.overhead_pct"], attr.samples)
	return nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var o options
	var secs int
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: city or gateway")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&secs, "seconds", 10, "measured seconds per phase")
	flag.IntVar(&traceFlag, "trace", 0, "1 prints the per-layer metrics of a traced run instead")
	flag.Parse()
	o.seconds = time.Duration(secs) * time.Second
	o.trace = traceFlag == 1
	if secs < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}

	run := map[string]func(options) (*result, error){
		"city": runCity, "gateway": runGateway,
	}[o.workload]
	if run == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (city, gateway)\n", o.workload)
		os.Exit(2)
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%v nproc=%d GOMAXPROCS=%d %s\n",
		o.workload, o.seed, secs, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(2)
	}
	for _, n := range res.notes {
		fmt.Println("  " + n)
	}

	defs, vals := endToEnd, res.e2e
	if o.trace {
		defs, vals = perLayer, res.layer
	}
	out := report{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricOut{}}
	for _, m := range defs {
		v := vals[m.name]
		out.Metrics[m.name] = metricOut{Value: v, Unit: m.unit}
		fmt.Printf("  %-28s %14.6g %s\n", m.name, v, m.unit)
	}
	fmt.Printf("  correct=%v attempted=%d failed=%d\n", res.correct, res.attempted, res.failed)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.correct {
		os.Exit(1)
	}
}
