package planpd_test

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"planp.dev/planp/internal/adapt"
	"planp.dev/planp/internal/apps/httpd"
	"planp.dev/planp/internal/chaos"
	"planp.dev/planp/internal/fleet"
)

// adaptRig is the live adaptation testbed: the demo daemon with chaos
// wired to its links and nodes, the gateway's control API behind real
// HTTP, and the daemon's adaptation controller driving its fleet —
// wall-clock end to end.
type adaptRig struct {
	*demoRig
	eng     *chaos.Engine
	targets []fleet.Target
	fc      *fleet.Controller
	ctl     *adapt.Controller
}

func newAdaptRig(t *testing.T) *adaptRig {
	t.Helper()
	r := newDemoRig(t, false)
	d := r.owner("gateway")
	return &adaptRig{
		demoRig: r,
		eng:     d.Chaos,
		targets: []fleet.Target{{Name: "gateway", URL: r.nodeURL("gateway")}},
		fc:      d.Fleet,
		ctl:     d.Adapt,
	}
}

// traffic streams client requests at the virtual server until the
// returned stop function is called — the load the guard metrics and
// policy decisions observe.
func (r *adaptRig) traffic(t *testing.T) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				r.inject(t, 5)
			}
		}
	}()
	return func() { cancel(); <-done }
}

func (r *adaptRig) deployPolicy(t *testing.T, name, version string) {
	t.Helper()
	pol, ok := httpd.GatewayPolicyNamed(name)
	if !ok {
		t.Fatalf("no gateway policy %q", name)
	}
	if _, err := r.fc.Deploy(context.Background(),
		fleet.Spec{Version: version, Source: pol.Source, Verify: "single"}, r.targets); err != nil {
		t.Fatalf("deploy %s: %v", name, err)
	}
}

// activeVersion reads the gateway's running version over its control
// API.
func (r *adaptRig) activeVersion(t *testing.T) string {
	t.Helper()
	resp, err := http.Get(r.targets[0].URL + "/asp")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Active string `json:"active"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body.Active
}

// lossyLinkGuard is the canary guard for the demo: the gateway→server0
// link must not be dropping packets to faults. Chaos loss on that link
// makes the counter climb, which is exactly what the guard catches.
const lossyLinkGuard = "link.gateway:server0.fault_dropped_pkts<=0.5"

// TestAdaptCanaryChaosRollbackE2E: a canary rollout meets a degraded
// network. Chaos puts loss on the gateway→server0 link while the canary
// is under observation; the guard sees the fault-drop rate climb and
// the controller rolls the canary back to the incumbent on its own.
func TestAdaptCanaryChaosRollbackE2E(t *testing.T) {
	r := newAdaptRig(t)
	r.deployPolicy(t, "roundrobin", "v1")
	stop := r.traffic(t)
	defer stop()

	// Degrade the environment the canary will be judged in. The
	// candidate is the "random" policy — like the incumbent it keeps
	// sending connections at server0, so the lossy link stays on the
	// datapath the guard watches.
	r.eng.Apply(chaos.Loss("gateway-server0", 0.9))

	random, _ := httpd.GatewayPolicyNamed("random")
	guards, err := adapt.ParseGuards([]string{lossyLinkGuard})
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.ctl.Canary(context.Background(), adapt.CanaryPlan{
		Spec:     fleet.Spec{Version: "v2", Source: random.Source, Verify: "single"},
		Canary:   r.targets,
		Guards:   guards,
		Windows:  3,
		Interval: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("canary under chaos must roll back cleanly: %v", err)
	}
	if out.Verdict != adapt.VerdictRolledBack {
		t.Fatalf("verdict = %s (%s), want rolled-back under link loss", out.Verdict, out.Reason)
	}
	if len(out.Violations) == 0 || !strings.Contains(out.Reason, "fault_dropped_pkts") {
		t.Errorf("rollback does not cite the link guard: %q %v", out.Reason, out.Violations)
	}
	if got := r.activeVersion(t); got != "v1" {
		t.Errorf("gateway runs %q after auto-rollback, want v1", got)
	}
	// The fleet history records the whole episode: deploy, canary,
	// rollback with the violation as its reason.
	views := r.fc.Deployments()
	last := views[len(views)-1]
	if last.Kind != "rollback" || !strings.Contains(last.Reason, "guard violated") {
		t.Errorf("last history record = kind %q reason %q, want the guard rollback", last.Kind, last.Reason)
	}
}

// TestAdaptPolicyChaosSwitchE2E is the closed-loop demo: injected link
// faults shift the observed load, the policy engine switches the live
// gateway from round-robin to least-connections (exactly once — the
// cooldown holds through the recovery), and the cluster keeps serving
// after the network heals.
func TestAdaptPolicyChaosSwitchE2E(t *testing.T) {
	r := newAdaptRig(t)
	r.deployPolicy(t, "roundrobin", "roundrobin-v0")
	stop := r.traffic(t)
	defer stop()

	rr, _ := httpd.GatewayPolicyNamed("roundrobin")
	lc, _ := httpd.GatewayPolicyNamed("leastconn")
	candidates := []adapt.Candidate{
		{Name: rr.Name, Source: rr.Source, Verify: "single"},
		{Name: lc.Name, Source: lc.Source, Verify: "single"},
	}
	// Trend: while the gateway→server0 link is dropping to faults,
	// prefer the variant that steers around sick servers.
	decide := func(windows map[string]adapt.Window) string {
		if windows["gateway"].Rate("link.gateway:server0.fault_dropped_pkts") > 0.5 {
			return lc.Name
		}
		return rr.Name
	}

	// Degrade, then heal mid-run on the chaos timeline.
	r.eng.Apply(chaos.Loss("gateway-server0", 0.9))
	healed := time.AfterFunc(2200*time.Millisecond, func() {
		r.eng.Apply(chaos.Heal())
	})
	defer healed.Stop()

	report, err := r.ctl.RunPolicy(context.Background(), adapt.PolicyPlan{
		Candidates: candidates,
		Decide:     decide,
		Current:    rr.Name,
		Targets:    r.targets,
		Interval:   300 * time.Millisecond,
		Rounds:     12,
		Hysteresis: 2,
		Cooldown:   time.Minute, // hold steady through the healed tail
	})
	if err != nil {
		t.Fatalf("RunPolicy: %v", err)
	}
	if len(report.Switches) != 1 {
		t.Fatalf("switches = %+v, want exactly one (degrade -> leastconn, then hold)", report.Switches)
	}
	if report.Switches[0].From != rr.Name || report.Switches[0].To != lc.Name {
		t.Errorf("switch = %+v, want roundrobin->leastconn", report.Switches[0])
	}
	if got := r.activeVersion(t); !strings.HasPrefix(got, "leastconn-") {
		t.Errorf("gateway runs %q, want a leastconn-* version", got)
	}
	var adaptRecords int
	for _, v := range r.fc.Deployments() {
		if v.Kind == "adapt" && v.State == fleet.StateActive {
			adaptRecords++
			if !strings.Contains(v.Reason, "preferred leastconn over roundrobin") {
				t.Errorf("adapt record reason %q does not explain the decision", v.Reason)
			}
		}
	}
	if adaptRecords != 1 {
		t.Errorf("adapt history records = %d, want 1", adaptRecords)
	}

	// After the heal, the switched gateway still serves: responses keep
	// arriving from the virtual server.
	before := r.responses.Load()
	time.Sleep(500 * time.Millisecond)
	after, fromVirtual := r.responses.Load(), r.fromVirtual.Load()
	if after <= before {
		t.Errorf("no responses after heal: %d -> %d", before, after)
	}
	if fromVirtual == 0 {
		t.Error("no responses masqueraded as the virtual server")
	}
}
