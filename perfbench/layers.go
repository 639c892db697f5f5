package main

import (
	"strings"
)

const module = "planp.dev/planp/internal/"

// layerTable maps package paths to the layers per-layer metrics are
// named after. A CPU sample belongs to the layer of the innermost frame
// whose package is listed here; frames of unlisted packages (runtime,
// the standard library below net/http, and the shared helpers
// internal/substrate, internal/obs, internal/par, internal/chaos,
// internal/lang/ast, internal/lang/diag) are charged to whichever
// listed caller invoked them. So an allocation inside the JIT counts as
// engine time, a socket write under rtnet as rtnet time. The table is
// fixed: an entry never moves with the workload being measured.
var layerTable = []struct{ pkg, layer string }{
	{module + "netsim", "netsim"},
	{module + "apps/city", "netsim"},

	{module + "lang/jit", "engine"},
	{module + "lang/bytecode", "engine"},
	{module + "lang/interp", "engine"},
	{module + "lang/engine", "engine"},
	{module + "lang/value", "engine"},
	{module + "lang/prims", "engine"},

	{module + "planprt", "planprt"},

	{module + "lang/lexer", "frontend"},
	{module + "lang/parser", "frontend"},
	{module + "lang/typecheck", "frontend"},
	{module + "lang/verify", "frontend"},

	{module + "rtnet", "rtnet"},

	{module + "planpd", "control"},
	{module + "fleet", "control"},
	{module + "adapt", "control"},
	{module + "testbed", "control"},
	{"net/http", "control"},
	{"encoding/json", "control"},

	// The benchmark itself: load generators, clients, servers' replies
	// (its package is "main" in the binary, its module path under test).
	{"main", "bench"},
	{"planp.dev/planp/perfbench", "bench"},
}

// Layers lists every attribution bucket, in report order. The last
// three hold samples with no listed frame at all: the garbage
// collector's own workers, the rest of the runtime (scheduler, sysmon,
// netpoller, timers), and anything else.
var layers = []string{"netsim", "engine", "planprt", "frontend", "rtnet", "control", "bench", "gc", "sched", "other"}

// funcPackage extracts the package path from a profile function name
// such as "planp.dev/planp/internal/lang/jit.(*fn).call.func1" or
// "net/http.(*conn).serve".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation: type arguments may hold paths
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOfPackage returns the table's layer for pkg, or "".
func layerOfPackage(pkg string) string {
	for _, e := range layerTable {
		if pkg == e.pkg || strings.HasPrefix(pkg, e.pkg+"/") {
			return e.layer
		}
	}
	return ""
}

// gcWorkers are runtime entry points that only the collector runs.
var gcWorkers = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcMarkDone", "runtime.gcStart"}

// layerOf attributes one sample stack (leaf first) to a layer.
func layerOf(funcs []string) string {
	for _, fn := range funcs {
		if l := layerOfPackage(funcPackage(fn)); l != "" {
			return l
		}
	}
	runtimeOnly := true
	for _, fn := range funcs {
		for _, w := range gcWorkers {
			if fn == w {
				return "gc"
			}
		}
		if p := funcPackage(fn); p != "runtime" && !strings.HasPrefix(p, "internal/runtime/") && !strings.HasPrefix(p, "runtime/internal/") {
			runtimeOnly = false
		}
	}
	if runtimeOnly {
		return "sched"
	}
	return "other"
}

// crossCuts are shares that overlap the layers: a sample counts toward
// one when any frame in its stack matches, whatever layer owns it.
var crossCuts = []struct {
	name  string
	match func(fn string) bool
}{
	{"rtnet.remote_send_share", func(fn string) bool {
		return strings.HasPrefix(fn, module+"rtnet.(*RemoteIface).Send") ||
			strings.HasPrefix(fn, module+"rtnet.(*RemoteIface).sendNow")
	}},
	{"rtnet.remote_read_share", func(fn string) bool {
		return strings.HasPrefix(fn, module+"rtnet.(*RemoteIface).read")
	}},
	{"syscall_share", func(fn string) bool {
		return strings.HasPrefix(fn, "syscall.") || strings.HasPrefix(fn, "internal/runtime/syscall.") ||
			strings.HasPrefix(fn, "runtime/internal/syscall.")
	}},
}

// attribution is a profile's CPU split: exclusive layer shares that sum
// to 100, plus the overlapping cross-cut shares, all in percent.
type attribution struct {
	samples int64
	layer   map[string]float64
	cross   map[string]float64
}

func attribute(stacks []stack) attribution {
	a := attribution{layer: map[string]float64{}, cross: map[string]float64{}}
	counts := map[string]int64{}
	cross := map[string]int64{}
	for _, s := range stacks {
		a.samples += s.weight
		counts[layerOf(s.funcs)] += s.weight
		for _, c := range crossCuts {
			for _, fn := range s.funcs {
				if c.match(fn) {
					cross[c.name] += s.weight
					break
				}
			}
		}
	}
	for _, l := range layers {
		a.layer[l] = share(counts[l], a.samples)
	}
	for _, c := range crossCuts {
		a.cross[c.name] = share(cross[c.name], a.samples)
	}
	return a
}

func share(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}
