package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"planp.dev/planp/asp"
	"planp.dev/planp/internal/apps/httpd"
	"planp.dev/planp/internal/lang/parser"
	"planp.dev/planp/internal/lang/typecheck"
	"planp.dev/planp/internal/lang/verify"
	"planp.dev/planp/internal/planprt"
	"planp.dev/planp/internal/substrate"
)

const (
	// bgRate is the background traffic's fixed offered load. It is
	// fixed, not closed-loop, so deploy latency does not feed back into
	// how much traffic crosses the gateway.
	bgRate = 2000
	// bgConns is how many client source ports the background cycles
	// through.
	bgConns = 256
	// bgDrain is how long answers may still arrive after the load stops.
	bgDrain = 300 * time.Millisecond
	// thinkTime is the deployer's pause between steps. Every rollout
	// leaves its compiled program in planprt's cache and its record in
	// the fleet history, so live heap grows with each step; the pause
	// bounds a phase to a few thousand steps, and so its heap, while the
	// control plane still does most of the work.
	thinkTime = 4 * time.Millisecond
)

// openLoop is the adaptation phase's background traffic: requests sent
// on a fixed schedule from the client node, matched to answers by
// sequence number.
type openLoop struct {
	b *bed

	mu       sync.Mutex
	sent     int
	answered []bool
	physical int64 // answered from a physical server address
	strays   int64 // duplicate answers
	lateMax  time.Duration
	lateSum  time.Duration
}

func newOpenLoop(b *bed) *openLoop {
	l := &openLoop{b: b}
	fn := l.onResponse
	b.onResponse.Store(&fn)
	return l
}

func (l *openLoop) onResponse(pkt *substrate.Packet) {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := int(pkt.TCP.Seq)
	if i >= l.sent || l.answered[i] {
		l.strays++
		return
	}
	l.answered[i] = true
	if pkt.IP.Src != vip {
		l.physical++
	}
}

// run sends on schedule until stop closes. A request is due every
// 1/bgRate s from the start; a late generator catches up rather than
// thinning the load, and records how late it ran.
func (l *openLoop) run(stop <-chan struct{}) {
	period := time.Second / bgRate
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		select {
		case <-stop:
			return
		default:
		}
		late := time.Since(due)
		l.mu.Lock()
		l.sent++
		l.answered = append(l.answered, false)
		l.lateSum += late
		l.lateMax = max(l.lateMax, late)
		l.mu.Unlock()
		l.b.sendRequest(uint16(20000+i%bgConns), uint32(i))
	}
}

// lost counts requests never answered.
func (l *openLoop) lost() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int64
	for _, a := range l.answered {
		if !a {
			n++
		}
	}
	return n
}

// runAdaptation is the traced gateway run's last phase: adaptation
// while the network serves. One deployer alternates a fresh
// audio-router rollout to both servers with a switch of the gateway's
// balancing policy, under fixed-rate background HTTP through the
// gateway, for --seconds under the CPU profiler and the span recorder.
// Its figures are per-layer metrics only: on a shared host the deploy
// round trip drifts too far between runs to bound (see NOTES.md).
func runAdaptation(o options, b *bed, spans *spanRecorder, res *result) error {
	policies := httpd.GatewayPolicies()
	bg := newOpenLoop(b)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		bg.run(stop)
	}()
	hits0, misses0 := planprt.CacheStats()
	prof, err := startProfile()
	if err != nil {
		close(stop)
		wg.Wait()
		return err
	}
	spans.on.Store(true)

	var (
		steps, bad           int64
		lastRoll, lastSwitch string
		rolloutSrcs          []string
		rollMS, switchMS     []float64
	)
	end := time.Now().Add(o.seconds)
	for k := 0; time.Now().Before(end); k++ {
		rv := fmt.Sprintf("r%d", k)
		src := asp.AudioRouter + fmt.Sprintf("\n-- rollout %d/%d\n", o.seed, k)
		rd, rerr := b.deploy(rv, "s0,s1", "", src)
		sv := fmt.Sprintf("s%d", k)
		sd, serr := b.deploy(sv, "gw", "single", policies[(k+1)%len(policies)].Source)
		steps++
		if rerr != nil || serr != nil {
			bad++
			res.note("failed step %d: %v %v", k, rerr, serr)
			continue
		}
		lastRoll, lastSwitch = rv, sv
		rolloutSrcs = append(rolloutSrcs, src)
		rollMS = append(rollMS, float64(rd)/1e6)
		switchMS = append(switchMS, float64(sd)/1e6)
		time.Sleep(thinkTime)
	}
	spans.on.Store(false)
	attr, perr := prof.stop()
	close(stop)
	wg.Wait()
	time.Sleep(bgDrain)
	hits1, misses1 := planprt.CacheStats()
	if perr != nil {
		return perr
	}

	// Every deploy must have ended Active on all its targets, and the
	// nodes must run the last versions deployed.
	for _, chk := range []struct{ daemon, node, want string }{
		{"d2", "s0", lastRoll}, {"d3", "s1", lastRoll}, {"d1", "gw", lastSwitch},
	} {
		got, err := b.activeVersion(chk.daemon, chk.node)
		if err != nil || got != chk.want {
			res.correct = false
			res.note("node %s runs %q, want %q (%v)", chk.node, got, chk.want, err)
		}
	}
	res.correct = res.correct && bad == 0
	res.attempted += steps
	res.failed += bad

	lost := bg.lost()
	bg.mu.Lock()
	phys, sent, strays := bg.physical, bg.sent, bg.strays
	lateMean := bg.lateSum / time.Duration(max(sent, 1))
	lateMax := bg.lateMax
	bg.mu.Unlock()
	res.note("adaptation: %d steps (%d failed): rollout p50 %s, switch p50 %s", steps, bad,
		pctNote(rollMS, "ms"), pctNote(switchMS, "ms"))
	res.note("background: %d requests at %d/s over %d connections, %d lost (%.2f%%), %d answered from a physical address, %d duplicates; generator late by %v mean, %v max",
		sent, bgRate, bgConns, lost, 100*float64(lost)/float64(max(sent, 1)), phys, strays, lateMean, lateMax)
	res.note("swap loss: %.3f background requests lost per gateway switch (activate uninstalls before it installs)",
		float64(lost)/float64(max(steps, 1)))

	for _, l := range layers {
		res.layer["adapt."+l+".cpu_share"] = attr.layer[l]
	}
	res.layer["planprt.cache_hits"] = float64(hits1 - hits0)
	res.layer["planprt.cache_misses"] = float64(misses1 - misses0)
	for name, xs := range map[string][]float64{"adapt.rollout": rollMS, "adapt.switch": switchMS} {
		sort.Float64s(xs)
		res.layer[name+"_p50_ms"], _, _ = percentile(xs, 0.5)
		res.layer[name+"_p99_ms"], _, _ = percentile(xs, 0.99) // 0 when unsupported
	}
	res.layer["planpd.swap_lost_per_switch"] = float64(lost) / float64(max(steps, 1))
	res.layer["gw.physical_src_responses"] = float64(phys)

	linked := spans.link()
	dur, self := spanStats(linked)
	res.layer["planpd.health_ms"] = dur["planpd.health"]
	res.layer["planpd.stage_ms"] = dur["planpd.stage"]
	res.layer["planpd.activate_ms"] = dur["planpd.activate"]
	res.layer["fleet.self_ms"] = self
	path, err := writeSpans(traceDir, fmt.Sprintf("spans-gateway-%d.json", o.seed), linked)
	if err != nil {
		return err
	}
	res.note("%d spans written to %s", len(linked), path)
	return replayFrontend(res, rolloutSrcs)
}

// traceDir receives a traced run's spans, inside the checkout.
const traceDir = ".bench_build/perfbench-trace"

// replayFrontend times the front end stage by stage on the traced
// phase's rollout sources, once the load has stopped: parse,
// typecheck, verify, and the code generation of an uncached Load.
func replayFrontend(res *result, srcs []string) error {
	var parse, check, ver, codegen []float64
	for _, src := range srcs {
		t0 := time.Now()
		prog, err := parser.Parse(src)
		if err != nil {
			return err
		}
		t1 := time.Now()
		info, err := typecheck.Check(prog)
		if err != nil {
			return err
		}
		t2 := time.Now()
		if err := verify.Verify(info).Err(); err != nil {
			return err
		}
		t3 := time.Now()
		p, err := planprt.Load(src, planprt.Config{NoCache: true})
		if err != nil {
			return err
		}
		parse = append(parse, float64(t1.Sub(t0))/1e3)
		check = append(check, float64(t2.Sub(t1))/1e3)
		ver = append(ver, float64(t3.Sub(t2))/1e3)
		codegen = append(codegen, float64(p.CodegenTime)/1e3)
	}
	res.layer["frontend.parse_us"] = median(parse)
	res.layer["frontend.typecheck_us"] = median(check)
	res.layer["frontend.verify_us"] = median(ver)
	res.layer["frontend.codegen_us"] = median(codegen)
	return nil
}

// pctNote formats a sample's median and p99 (when it has ten samples
// beyond it) with the count.
func pctNote(xs []float64, unit string) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	p50, n, err := percentile(s, 0.5)
	if err != nil {
		return "n/a"
	}
	out := fmt.Sprintf("%.4g %s", p50, unit)
	if p99, _, err := percentile(s, 0.99); err == nil {
		out += fmt.Sprintf(", p99 %.4g %s", p99, unit)
	}
	return out + fmt.Sprintf(" (n=%d)", n)
}
