package planpd_test

import (
	"context"
	"testing"
	"time"

	"planp.dev/planp/asp"
	"planp.dev/planp/internal/chaos"
	"planp.dev/planp/internal/fleet"
)

// TestGatewayCrashRedeployE2E is the recovery story on the real-time
// backend: the fleet controller rolls the load-balancing ASP onto the
// live gateway, the gateway node crashes and restarts bare (the chaos
// engine's crash semantics: installed protocol gone, its daemon back
// with empty state), the virtual server goes dark — and a second fleet
// rollout brings service back. This is the wall-clock counterpart of
// the crash scenarios in the netsim robustness suite.
func TestGatewayCrashRedeployE2E(t *testing.T) {
	r := newDemoRig(t, false)
	d := r.owner("gateway")
	targets := []fleet.Target{{Name: "gateway", URL: r.nodeURL("gateway")}}
	ctx := context.Background()

	drive := func(n int) {
		t.Helper()
		r.inject(t, n)
		r.settle(t, 10*time.Second)
	}

	// Rollout v1; the cluster balances and masquerades.
	if _, err := d.Fleet.Deploy(ctx, fleet.Spec{Version: "v1", Source: asp.HTTPGateway, Verify: "single"}, targets); err != nil {
		t.Fatalf("initial rollout: %v", err)
	}
	drive(40)
	virtualV1 := r.fromVirtual.Load()
	if virtualV1 < 30 {
		t.Fatalf("v1 serving: %d virtual-server responses of 40 requests", virtualV1)
	}
	s0, s1 := r.served(t, "server0"), r.served(t, "server1")
	if s0 == 0 || s1 == 0 {
		t.Fatalf("v1 not balancing: server0=%d server1=%d", s0, s1)
	}

	// Crash the live gateway; it restarts bare and its daemon restarts
	// with it. The protocol is gone, so virtual-server traffic dies at
	// server0 unanswered.
	d.Chaos.Apply(chaos.Crash("gateway"))
	d.Chaos.Apply(chaos.Restart("gateway"))
	r.restartAPI("gateway")

	drive(20)
	virtualDark := r.fromVirtual.Load()
	if virtualDark != virtualV1 {
		t.Fatalf("virtual server answered %d requests while the gateway was bare", virtualDark-virtualV1)
	}

	// Recovery: a fresh fleet rollout onto the restarted node.
	if _, err := d.Fleet.Deploy(ctx, fleet.Spec{Version: "v2", Source: asp.HTTPGateway, Verify: "single"}, targets); err != nil {
		t.Fatalf("recovery rollout: %v", err)
	}
	drive(40)
	virtualV2 := r.fromVirtual.Load()
	if virtualV2-virtualDark < 30 {
		t.Fatalf("recovery serving: only %d virtual-server responses after redeploy", virtualV2-virtualDark)
	}
}
