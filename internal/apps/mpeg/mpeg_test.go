package mpeg

import (
	"testing"
	"time"

	"planp.dev/planp/internal/planprt"
)

func TestSingleViewerDirect(t *testing.T) {
	res, err := Run(Options{Viewers: 1, UseASPs: false}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.ServerConnections != 1 {
		t.Errorf("connections = %d, want 1", res.ServerConnections)
	}
	// ~9 seconds of 25 fps.
	if res.ViewerFrames[0] < 200 {
		t.Errorf("viewer received %d frames, want ~225", res.ViewerFrames[0])
	}
}

func TestWithoutASPsServerLoadScalesLinearly(t *testing.T) {
	res, err := Run(Options{Viewers: 4, UseASPs: false}, 12*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.ServerConnections != 4 {
		t.Errorf("connections = %d, want 4 (one per viewer)", res.ServerConnections)
	}
	// Each viewer pulls its own copy, so frames sent scale with viewers.
	if res.ServerFrames < 3*res.ViewerFrames[0] {
		t.Errorf("server sent %d frames for 4 viewers; expected roughly 4x a single stream", res.ServerFrames)
	}
}

func TestWithASPsServerServesOneConnection(t *testing.T) {
	res, err := Run(Options{Viewers: 4, UseASPs: true}, 12*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.ServerConnections != 1 {
		t.Fatalf("connections = %d, want 1 (the ASPs share the stream)", res.ServerConnections)
	}
	// Every viewer must still receive the video.
	for i, frames := range res.ViewerFrames {
		if frames < 150 {
			t.Errorf("viewer %d received only %d frames", i+1, frames)
		}
	}
}

func TestSharedViewersGetSetupFromMonitor(t *testing.T) {
	tb, err := NewTestbed(Options{Viewers: 2, UseASPs: true, Stagger: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	tb.Sim.At(time.Second, tb.Clients[0].Start)
	tb.Sim.At(3*time.Second, tb.Clients[1].Start)
	tb.Sim.RunUntil(8 * time.Second)

	first, second := tb.Clients[0], tb.Clients[1]
	if !first.Connected {
		t.Error("first viewer should connect directly (stream unknown)")
	}
	if second.Connected {
		t.Error("second viewer should not open a connection")
	}
	if second.SharedWith != first.Node.Address() {
		t.Errorf("second viewer shares with %s, want %s", second.SharedWith, first.Node.Address())
	}
	if string(second.Setup) != string(first.Setup) {
		t.Errorf("setup info differs: %x vs %x", second.Setup, first.Setup)
	}
	if second.Frames == 0 {
		t.Error("second viewer captured no frames")
	}
	// GOP structure survives capture: I frames present in ratio ~1/12.
	if second.IFrames == 0 {
		t.Error("no I frames captured")
	}
}

func TestSegmentTrafficDoesNotScaleWithViewers(t *testing.T) {
	frames := map[int]int64{}
	for _, viewers := range []int{1, 4} {
		res, err := Run(Options{Viewers: viewers, UseASPs: true}, 12*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		frames[viewers] = res.ServerFrames
	}
	// With sharing, server transmission is independent of viewer count
	// (modulo the staggered start shifting the window slightly).
	ratio := float64(frames[4]) / float64(frames[1])
	if ratio > 1.15 {
		t.Errorf("server frames grew %.2fx from 1 to 4 viewers; sharing should keep it flat", ratio)
	}
}

func TestFallbackWithoutMonitor(t *testing.T) {
	// Client ASPs deployed but no monitor: the query times out and the
	// viewer falls back to a direct connection.
	tb, err := NewTestbed(Options{Viewers: 1, UseASPs: true})
	if err != nil {
		t.Fatal(err)
	}
	tb.Monitor.Processor = nil // monitor machine lost its program
	tb.Clients[0].Start()
	tb.Sim.RunUntil(5 * time.Second)
	if !tb.Clients[0].Connected {
		t.Error("viewer should fall back to a direct connection")
	}
	if tb.Clients[0].Frames == 0 {
		t.Error("fallback viewer received no frames")
	}
}

func TestTeardownUnregistersStream(t *testing.T) {
	tb, err := NewTestbed(Options{Viewers: 2, UseASPs: true})
	if err != nil {
		t.Fatal(err)
	}
	first, second := tb.Clients[0], tb.Clients[1]
	tb.Sim.At(time.Second, first.Start)
	tb.Sim.At(2*time.Second, first.Teardown)
	// After teardown the monitor must treat the stream as gone: the
	// second viewer connects directly.
	tb.Sim.At(4*time.Second, second.Start)
	tb.Sim.RunUntil(8 * time.Second)
	if !second.Connected {
		t.Error("second viewer should connect directly after teardown")
	}
	if tb.Server.Connections != 2 {
		t.Errorf("connections = %d, want 2", tb.Server.Connections)
	}
}

func TestEnginesAgreeOnSharing(t *testing.T) {
	for _, eng := range []planprt.EngineKind{planprt.EngineInterp, planprt.EngineJIT} {
		res, err := Run(Options{Viewers: 3, UseASPs: true, Engine: eng}, 10*time.Second)
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		if res.ServerConnections != 1 {
			t.Errorf("%s: connections = %d, want 1", eng, res.ServerConnections)
		}
	}
}
