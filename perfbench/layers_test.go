package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"planp.dev/planp/internal/lang/jit.(*fn).call.func1":       "planp.dev/planp/internal/lang/jit",
		"planp.dev/planp/internal/netsim.(*Simulator).RunUntil":    "planp.dev/planp/internal/netsim",
		"net/http.(*conn).serve":                                   "net/http",
		"runtime.mallocgc":                                         "runtime",
		"main.main":                                                "main",
		"planp.dev/planp/internal/par.ForEach[go.shape.func(int)]": "planp.dev/planp/internal/par",
		"internal/runtime/syscall.Syscall6":                        "internal/runtime/syscall",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestLayerOfInnermostListedFrame(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		// Runtime work inside a layer belongs to that layer.
		{[]string{"runtime.mallocgc", "planp.dev/planp/internal/lang/value.NewTuple", "planp.dev/planp/internal/planprt.Decode"}, "engine"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.sendto", "planp.dev/planp/internal/rtnet.(*RemoteIface).sendNow", "planp.dev/planp/internal/planprt.(*Runtime).OnRemote"}, "rtnet"},
		// Shared helpers are transparent.
		{[]string{"planp.dev/planp/internal/substrate.AppendWire", "planp.dev/planp/internal/netsim.(*Link).deliver"}, "netsim"},
		{[]string{"planp.dev/planp/internal/lang/parser.(*parser).expr", "planp.dev/planp/internal/planprt.Load", "planp.dev/planp/internal/planpd.(*Server).stage", "net/http.HandlerFunc.ServeHTTP"}, "frontend"},
		{[]string{"bufio.(*Writer).Flush", "net/http.(*response).finishRequest"}, "control"},
		{[]string{"main.(*client).onResponse", "planp.dev/planp/internal/rtnet.(*Node).deliverLocal"}, "bench"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.mcall"}, "sched"},
		{[]string{"os/signal.loop"}, "other"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// TestSharesSumToHundred: every sample lands in exactly one layer, so
// the exclusive shares always total 100%, whatever the mix.
func TestSharesSumToHundred(t *testing.T) {
	a := attribute([]stack{
		{[]string{"planp.dev/planp/internal/netsim.(*shard).run"}, 7},
		{[]string{"runtime.gcBgMarkWorker"}, 2},
		{[]string{"os/signal.loop"}, 1},
		{[]string{"internal/runtime/syscall.Syscall6", "planp.dev/planp/internal/rtnet.(*RemoteIface).read"}, 5},
		{nil, 1},
	})
	sum := 0.0
	for _, l := range layers {
		sum += a.layer[l]
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Fatalf("layer shares sum to %v: %v", sum, a.layer)
	}
	if a.cross["rtnet.remote_read_share"] != 100*5.0/16 || a.cross["syscall_share"] != 100*5.0/16 {
		t.Fatalf("cross-cut shares: %v", a.cross)
	}
}

// TestParseLiveProfile round-trips a real runtime/pprof CPU profile
// through the decoder: the busy loop below must be found and charged
// to the benchmark's own layer.
func TestParseLiveProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	a := attribute(stacks)
	if a.samples == 0 {
		t.Skip("no samples collected")
	}
	if a.layer["bench"] < 50 {
		t.Fatalf("busy loop charged %.1f%% to bench (layers %v)", a.layer["bench"], a.layer)
	}
}

var spinSink uint64

//go:noinline
func spin(d time.Duration) {
	end := time.Now().Add(d)
	x := uint64(1)
	for time.Now().Before(end) {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink = x
}
