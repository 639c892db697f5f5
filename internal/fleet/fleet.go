// Package fleet is the deployment control plane: it installs one
// compiled ASP across a set of planpd-managed nodes as a unit, the way
// planprt.Deploy does across in-process nodes — all nodes end up on the
// new protocol version, or every reachable node is returned to the
// version it ran before.
//
// The paper's operators adapt a *running* network (§4: protocols are
// downloaded into live routers); once more than one router is involved,
// the switch becomes a coordination problem — a half-upgraded fleet
// runs two protocol versions against each other. The controller
// therefore drives a two-phase protocol over planpd's HTTP API:
//
//	phase 0  GET  /healthz      every target is alive (and its current
//	                            version is recorded as rollback target)
//	phase 1  POST /asp/stage    verify + compile on every node; all the
//	                            rejectable work happens while the old
//	                            version still serves traffic; any
//	                            failure aborts with DELETE /asp/stage
//	                            and nothing has changed anywhere
//	phase 2  POST /asp/activate every node swaps atomically; any
//	                            failure rolls every activated node back
//	                            to its previous version
//
// Fan-out is concurrent and bounded (internal/par), every request
// retries with exponential backoff + jitter, ambiguous activations
// (lost responses, nodes dying mid-phase) are reconciled against
// GET /asp, and the whole history is queryable via GET /deployments.
// Failure paths are deterministically testable through the pluggable
// fault-injecting RoundTripper (fault.go). Rollout progress is
// published as obs events (KindDeploy/KindRollback) and metrics.
package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"planp.dev/planp/internal/obs"
	"planp.dev/planp/internal/par"
	"planp.dev/planp/internal/planprt"
)

// NodeStatus is one target's position in the rollout state machine.
type NodeStatus string

// Node statuses.
const (
	// NodePending: not yet staged (or stage was aborted — the node
	// still runs whatever it ran before the rollout).
	NodePending NodeStatus = "Pending"
	// NodeStaged: the new version is verified and compiled on the node
	// but not yet processing packets.
	NodeStaged NodeStatus = "Staged"
	// NodeActive: the new version is processing packets.
	NodeActive NodeStatus = "Active"
	// NodeRolledBack: the rollout failed elsewhere and this node was
	// returned to its previously active version.
	NodeRolledBack NodeStatus = "RolledBack"
	// NodeFailed: the node failed a phase (or died) and could not be
	// confirmed converged.
	NodeFailed NodeStatus = "Failed"
)

// State is the deployment-level outcome.
type State string

// Deployment states.
const (
	StatePending    State = "Pending"
	StateActive     State = "Active"
	StateRolledBack State = "RolledBack"
	StateFailed     State = "Failed"
)

// Target names one planpd control endpoint, e.g.
// {Name: "gw0", URL: "http://10.0.0.1:8377"} or a path-mounted node
// ("http://host:8377/node/gw0").
type Target struct {
	Name string
	URL  string
}

// ParseTargets decodes a comma-separated target list. Each entry is
// either name=url or a bare node name, which resolve maps to the
// node's control URL (false: no such node).
func ParseTargets(spec string, resolve func(name string) (string, bool)) ([]Target, error) {
	var targets []Target
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		if name, url, ok := strings.Cut(entry, "="); ok {
			targets = append(targets, Target{Name: name, URL: url})
			continue
		}
		if strings.Contains(entry, "://") {
			return nil, fmt.Errorf("target %q: use name=url for explicit URLs", entry)
		}
		url, ok := resolve(entry)
		if !ok {
			return nil, fmt.Errorf("target %q: no such node", entry)
		}
		targets = append(targets, Target{Name: entry, URL: url})
	}
	if len(targets) == 0 {
		return nil, errors.New("no target nodes given")
	}
	return targets, nil
}

// Spec describes what to roll out. Engine and Verify use planpd's
// query vocabulary ("jit"/"interp", "network"/"single"/"privileged");
// empty means the daemon default. An empty Version gets an
// auto-assigned "v<id>" label.
type Spec struct {
	Version string
	Source  string
	Engine  string
	Verify  string

	// SourceName labels Source in compatibility diagnostics (a file
	// name, typically); empty falls back to "staged:<version>".
	SourceName string

	// AllowIncompatible lets an intentionally breaking rollout proceed
	// past the compatibility gate. The gate still runs; its findings
	// are recorded on the deployment (CompatWarnings) and in the
	// persisted history instead of rejecting the rollout.
	AllowIncompatible bool

	// Kind classifies the rollout in the deployment history: "" for a
	// plain operator deploy, or one of the adaptation controller's
	// decision kinds — "canary" (staged on a canary cohort), "promote"
	// (canary verdict extended fleet-wide), "adapt" (the policy engine
	// switched protocol variants). Rollback records written by
	// RollbackDeployment carry kind "rollback".
	Kind string
	// Reason is a free-form explanation recorded alongside Kind — which
	// guard promoted the canary, which metric trend switched variants.
	Reason string
}

// Node is one target's record within a deployment. Fields are guarded
// by the owning Deployment's mutex; read them through View.
type Node struct {
	Name        string
	URL         string
	Status      NodeStatus
	PrevVersion string // active version observed at health time
	Attempts    int    // HTTP attempts spent on this node
	Error       string // last error, if any
}

// Deployment is one rollout's record: live while the rollout runs,
// then retained in the controller history.
type Deployment struct {
	ID        int
	Version   string
	SourceSHA string
	Engine    string
	Verify    string
	Kind      string
	Reason    string

	mu       sync.Mutex
	state    State
	err      string
	nodes    []*Node
	started  time.Time
	finished time.Time

	// compatOverride records that the compatibility gate found
	// mismatches and AllowIncompatible forced the rollout through;
	// compatWarnings holds the gate's findings either way.
	compatOverride bool
	compatWarnings []string

	// sigDiff is what this version changes relative to what the peers
	// ran at health-probe time (typecheck.Diff lines) — the operator's
	// preview of an upgrade, recorded whether or not it shipped.
	sigDiff []string
}

// NodeView is a consistent copy of one node record.
type NodeView struct {
	Name        string     `json:"name"`
	URL         string     `json:"url"`
	Status      NodeStatus `json:"status"`
	PrevVersion string     `json:"prev_version,omitempty"`
	Attempts    int        `json:"attempts"`
	Error       string     `json:"error,omitempty"`
}

// View is a consistent copy of a deployment record.
type View struct {
	ID        int        `json:"id"`
	Version   string     `json:"version"`
	State     State      `json:"state"`
	SourceSHA string     `json:"source_sha256"`
	Engine    string     `json:"engine,omitempty"`
	Verify    string     `json:"verify,omitempty"`
	Error     string     `json:"error,omitempty"`
	Kind      string     `json:"kind,omitempty"`
	Reason    string     `json:"reason,omitempty"`
	Nodes     []NodeView `json:"nodes"`

	// CompatOverride marks a rollout that the compatibility gate
	// flagged as breaking but AllowIncompatible forced through;
	// CompatWarnings lists what the gate found.
	CompatOverride bool     `json:"compat_override,omitempty"`
	CompatWarnings []string `json:"compat_warnings,omitempty"`

	// SigDiff is the channel-signature diff between this version and
	// what the peers ran when the rollout started — what the upgrade
	// changes, surfaced in GET /deployments before (and after) it ships.
	SigDiff []string `json:"signature_diff,omitempty"`
}

// View snapshots the deployment under its lock.
func (d *Deployment) View() View {
	d.mu.Lock()
	defer d.mu.Unlock()
	v := View{
		ID: d.ID, Version: d.Version, State: d.state,
		SourceSHA: d.SourceSHA, Engine: d.Engine, Verify: d.Verify, Error: d.err,
		Kind: d.Kind, Reason: d.Reason,
		CompatOverride: d.compatOverride,
		CompatWarnings: append([]string(nil), d.compatWarnings...),
		SigDiff:        append([]string(nil), d.sigDiff...),
	}
	for _, n := range d.nodes {
		v.Nodes = append(v.Nodes, NodeView{
			Name: n.Name, URL: n.URL, Status: n.Status,
			PrevVersion: n.PrevVersion, Attempts: n.Attempts, Error: n.Error,
		})
	}
	return v
}

// State returns the deployment-level state.
func (d *Deployment) State() State {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state
}

func (d *Deployment) setStatus(n *Node, st NodeStatus) {
	d.mu.Lock()
	n.Status = st
	d.mu.Unlock()
}

func (d *Deployment) setNodeError(n *Node, st NodeStatus, err error) {
	d.mu.Lock()
	n.Status = st
	n.Error = err.Error()
	d.mu.Unlock()
}

func (d *Deployment) setPrev(n *Node, version string) {
	d.mu.Lock()
	n.PrevVersion = version
	d.mu.Unlock()
}

func (d *Deployment) bumpAttempts(n *Node) {
	d.mu.Lock()
	n.Attempts++
	d.mu.Unlock()
}

func (d *Deployment) finish(st State, err error) {
	d.mu.Lock()
	d.state = st
	if err != nil {
		d.err = err.Error()
	}
	d.finished = time.Now()
	d.mu.Unlock()
}

// Config configures a Controller. The zero value works: default
// transport, default retry policy, fan-out 4.
type Config struct {
	// Client issues the control-plane requests; wrap its Transport in
	// an Injector for fault testing. Defaults to http.DefaultClient.
	Client *http.Client
	// Retry is the per-request retry policy.
	Retry RetryPolicy
	// Concurrency bounds the fan-out worker pool (default 4).
	Concurrency int
	// Bus, when set, receives KindDeploy/KindRollback events. The
	// controller serializes its publishes; subscribers see events from
	// one goroutine at a time but interleaved across nodes.
	Bus *obs.Bus
	// Metrics, when set, receives the "fleet.*" counters.
	Metrics *obs.Registry
	// Seed fixes the jitter stream (default 1).
	Seed int64
	// Logf, when set, receives one line per rollout step.
	Logf func(format string, args ...any)
	// HistoryPath, when set, persists every finished rollout as one
	// JSON line appended to this file and loads prior records on New —
	// the deployment history survives daemon restarts and crashes, and
	// IDs continue where the previous process stopped. Empty keeps the
	// history in memory only.
	HistoryPath string
}

// Controller orchestrates rollouts and retains their history.
type Controller struct {
	client  *http.Client
	retry   RetryPolicy
	conc    int
	bus     *obs.Bus
	busMu   sync.Mutex
	logf    func(string, ...any)
	start   time.Time
	sleepFn func(context.Context, time.Duration)

	rngMu sync.Mutex
	rng   *rand.Rand

	ctDeploys, ctActive, ctRolledBack, ctFailed *obs.Counter
	ctRetries, ctNodeRollbacks                  *obs.Counter

	mu          sync.Mutex
	deployments []*Deployment
	nextID      int

	historyPath string
	history     []View     // records loaded from historyPath at startup
	fileMu      sync.Mutex // serializes appends to historyPath
}

// New returns a Controller.
func New(cfg Config) *Controller {
	c := &Controller{
		client:  cfg.Client,
		retry:   cfg.Retry.withDefaults(),
		conc:    cfg.Concurrency,
		bus:     cfg.Bus,
		logf:    cfg.Logf,
		start:   time.Now(),
		sleepFn: sleep,
		nextID:  1,
	}
	if c.client == nil {
		c.client = http.DefaultClient
	}
	if c.conc <= 0 {
		c.conc = 4
	}
	if c.logf == nil {
		c.logf = func(string, ...any) {}
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	c.rng = rand.New(rand.NewSource(seed))
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c.ctDeploys = reg.Counter("fleet.deployments")
	c.ctActive = reg.Counter("fleet.deployments_active")
	c.ctRolledBack = reg.Counter("fleet.deployments_rolled_back")
	c.ctFailed = reg.Counter("fleet.deployments_failed")
	c.ctRetries = reg.Counter("fleet.http_retries")
	c.ctNodeRollbacks = reg.Counter("fleet.node_rollbacks")
	if cfg.HistoryPath != "" {
		c.historyPath = cfg.HistoryPath
		c.history = loadHistory(cfg.HistoryPath, c.logf)
		for _, v := range c.history {
			if v.ID >= c.nextID {
				c.nextID = v.ID + 1
			}
		}
	}
	return c
}

// loadHistory reads the append-only JSONL history. A missing file is an
// empty history; a torn final line (the daemon died mid-append) or any
// other corrupt record is skipped with a log line rather than poisoning
// the records around it.
func loadHistory(path string, logf func(string, ...any)) []View {
	data, err := os.ReadFile(path)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			logf("fleet: history %s: %v", path, err)
		}
		return nil
	}
	var out []View
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var v View
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			logf("fleet: history %s: skipping corrupt record on line %d: %v", path, i+1, err)
			continue
		}
		out = append(out, v)
	}
	return out
}

// persist appends the finished deployment to the history file. Failures
// are logged, not fatal: losing one history record must not fail a
// rollout that already converged.
func (c *Controller) persist(d *Deployment) {
	if c.historyPath == "" {
		return
	}
	line, err := json.Marshal(d.View())
	if err != nil {
		c.logf("fleet: history %s: %v", c.historyPath, err)
		return
	}
	c.fileMu.Lock()
	defer c.fileMu.Unlock()
	f, err := os.OpenFile(c.historyPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		c.logf("fleet: history %s: %v", c.historyPath, err)
		return
	}
	defer f.Close()
	if _, err := f.Write(append(line, '\n')); err != nil {
		c.logf("fleet: history %s: %v", c.historyPath, err)
	}
}

func (c *Controller) rand() float64 {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return c.rng.Float64()
}

func (c *Controller) countRetry() { c.ctRetries.Inc() }

// publish serializes rollout events onto the bus (obs.Bus is not
// internally synchronized and fleet fan-out is concurrent).
func (c *Controller) publish(kind obs.Kind, node, detail string) {
	if !c.bus.Active() {
		return
	}
	c.busMu.Lock()
	c.bus.Publish(obs.Event{Kind: kind, At: time.Since(c.start), Node: node, Detail: detail})
	c.busMu.Unlock()
}

// Deployments returns snapshots of every rollout, oldest first —
// records loaded from the history file (previous daemon lives) first,
// then this process's rollouts.
func (c *Controller) Deployments() []View {
	c.mu.Lock()
	hist := c.history
	ds := append([]*Deployment(nil), c.deployments...)
	c.mu.Unlock()
	views := make([]View, 0, len(hist)+len(ds))
	views = append(views, hist...)
	for _, d := range ds {
		views = append(views, d.View())
	}
	return views
}

// Handler returns the controller's query API:
//
//	GET /deployments        all rollouts, oldest first
//	GET /deployments?id=N   one rollout
func (c *Controller) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/deployments", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		views := c.Deployments()
		if idStr := r.URL.Query().Get("id"); idStr != "" {
			for _, v := range views {
				if fmt.Sprint(v.ID) == idStr {
					writeJSON(w, v)
					return
				}
			}
			http.Error(w, "no such deployment", http.StatusNotFound)
			return
		}
		writeJSON(w, map[string]any{"deployments": views})
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func (c *Controller) newDeployment(spec *Spec, targets []Target) *Deployment {
	c.mu.Lock()
	id := c.nextID
	c.nextID++
	if spec.Version == "" {
		spec.Version = fmt.Sprintf("v%d", id)
	}
	sum := sha256.Sum256([]byte(spec.Source))
	d := &Deployment{
		ID: id, Version: spec.Version,
		SourceSHA: hex.EncodeToString(sum[:]),
		Engine:    spec.Engine, Verify: spec.Verify,
		Kind: spec.Kind, Reason: spec.Reason,
		state: StatePending, started: time.Now(),
	}
	for _, t := range targets {
		d.nodes = append(d.nodes, &Node{Name: t.Name, URL: t.URL, Status: NodePending})
	}
	c.deployments = append(c.deployments, d)
	c.mu.Unlock()
	return d
}

// specConfig maps the Spec's engine/verify vocabulary onto planprt's
// for the controller-side precheck.
func specConfig(spec Spec) (planprt.Config, error) {
	var cfg planprt.Config
	switch spec.Engine {
	case "", "jit":
		cfg.Engine = planprt.EngineJIT
	case "interp":
		cfg.Engine = planprt.EngineInterp
	default:
		return cfg, fmt.Errorf("fleet: unknown engine %q", spec.Engine)
	}
	switch spec.Verify {
	case "", "network":
		cfg.Verify = planprt.VerifyNetwork
	case "single":
		cfg.Verify = planprt.VerifySingleNode
	case "privileged":
		cfg.Verify = planprt.VerifyPrivileged
	default:
		return cfg, fmt.Errorf("fleet: unknown verify policy %q", spec.Verify)
	}
	return cfg, nil
}

// forEach runs fn once per node on the bounded pool and returns the
// per-node errors (nil entries for successes).
func (c *Controller) forEach(d *Deployment, fn func(nc *nodeClient) error) []error {
	d.mu.Lock()
	nodes := append([]*Node(nil), d.nodes...)
	d.mu.Unlock()
	errs := make([]error, len(nodes))
	par.ForEach(c.conc, len(nodes), func(i int) {
		errs[i] = fn(&nodeClient{c: c, d: d, n: nodes[i]})
	})
	return errs
}

// failedNames summarizes which nodes errored.
func failedNames(d *Deployment, errs []error) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var names []string
	for i, err := range errs {
		if err != nil {
			names = append(names, d.nodes[i].Name)
		}
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Deploy rolls spec out to targets: health-probe, stage everywhere,
// activate everywhere, roll back on partial failure. It returns the
// deployment record (also retained in the controller history) and a
// non-nil error unless every node activated. Deploy is synchronous;
// run it on its own goroutine to overlap rollouts.
func (c *Controller) Deploy(ctx context.Context, spec Spec, targets []Target) (*Deployment, error) {
	if len(targets) == 0 {
		return nil, errors.New("fleet: deployment needs at least one target")
	}
	seen := map[string]bool{}
	for _, t := range targets {
		if t.Name == "" || t.URL == "" {
			return nil, fmt.Errorf("fleet: target needs both name and URL (got %+v)", t)
		}
		if seen[t.Name] {
			return nil, fmt.Errorf("fleet: duplicate target name %q", t.Name)
		}
		seen[t.Name] = true
	}
	cfg, err := specConfig(spec)
	if err != nil {
		return nil, err
	}

	c.ctDeploys.Inc()
	d := c.newDeployment(&spec, targets)
	c.logf("fleet: deployment %d: version %s to %d node(s)", d.ID, spec.Version, len(targets))

	// Controller-side precheck: compile-without-activate locally so a
	// program that cannot pass late checking — or was verified under
	// the single-node assumption and cannot legally fan out — fails
	// before any node is touched.
	prog, err := planprt.Load(spec.Source, cfg)
	if err != nil {
		return d, c.fail(d, fmt.Errorf("fleet: program rejected before rollout: %w", err))
	}
	if prog.Policy == planprt.VerifySingleNode && len(targets) > 1 {
		return d, c.fail(d, fmt.Errorf("fleet: program verified for single-node deployment offered %d nodes", len(targets)))
	}

	// Phase 0: health. Nothing is staged on a fleet with a dead member.
	// The probe also collects each peer's active channel signature for
	// the compatibility gate below.
	peers := make(map[string]peerSig, len(targets))
	var peersMu sync.Mutex
	errs := c.forEach(d, func(nc *nodeClient) error {
		v, sig, err := nc.health(ctx)
		if err != nil {
			d.setNodeError(nc.n, NodeFailed, err)
			c.publish(obs.KindDeploy, nc.n.Name, "health:failed")
			return err
		}
		d.setPrev(nc.n, v)
		peersMu.Lock()
		peers[nc.n.Name] = peerSig{version: v, sig: sig}
		peersMu.Unlock()
		return nil
	})
	if err := firstErr(errs); err != nil {
		return d, c.fail(d, fmt.Errorf("fleet: health probe failed on [%s]: %w", failedNames(d, errs), err))
	}

	// Record what this upgrade changes: the channel-signature diff
	// against each running peer version, surfaced in GET /deployments
	// so operators see the interface shift before it ships (and, in the
	// history, what each past rollout shifted). Recorded even when the
	// rollout is later rejected — the diff explains the rejection.
	d.mu.Lock()
	d.sigDiff = signatureDiff(prog.Signature(), peers)
	d.mu.Unlock()

	// Compatibility gate: before anything is staged, check the new
	// version's channel signature against what every peer currently
	// runs. A mixed-version rollout in which the fleet's in-flight
	// sends and the new program's channels disagree is rejected here —
	// with diagnostics pointing into the staged source — unless the
	// spec explicitly allows the break (recorded in the history).
	if err := c.compatGate(d, spec, prog.Signature(), peers); err != nil {
		return d, c.fail(d, err)
	}

	// Phase 1: stage everywhere. A failure anywhere aborts the stage
	// everywhere; no node's packet processing has changed.
	errs = c.forEach(d, func(nc *nodeClient) error {
		if err := nc.stage(ctx, spec); err != nil {
			d.setNodeError(nc.n, NodeFailed, err)
			c.publish(obs.KindDeploy, nc.n.Name, "stage:failed")
			return err
		}
		d.setStatus(nc.n, NodeStaged)
		c.publish(obs.KindDeploy, nc.n.Name, "stage:ok")
		return nil
	})
	if err := firstErr(errs); err != nil {
		stageErr := fmt.Errorf("fleet: stage failed on [%s]: %w", failedNames(d, errs), err)
		c.forEach(d, func(nc *nodeClient) error {
			if nc.status() != NodeStaged {
				return nil
			}
			if err := nc.abortStage(ctx, spec.Version); err != nil {
				d.setNodeError(nc.n, NodeFailed, fmt.Errorf("aborting stage: %w", err))
				return err
			}
			d.setStatus(nc.n, NodePending)
			c.publish(obs.KindRollback, nc.n.Name, "stage-aborted")
			return nil
		})
		return d, c.fail(d, stageErr)
	}

	// Phase 2: activate everywhere. An activation whose response was
	// lost is reconciled against GET /asp before being declared failed.
	errs = c.forEach(d, func(nc *nodeClient) error {
		actErr := nc.activate(ctx, spec.Version)
		if actErr == nil {
			d.setStatus(nc.n, NodeActive)
			c.publish(obs.KindDeploy, nc.n.Name, "activate:ok")
			return nil
		}
		active, staged, stErr := nc.aspStatus(ctx)
		switch {
		case stErr == nil && active == spec.Version:
			// The swap committed; only the response was lost.
			d.setStatus(nc.n, NodeActive)
			c.publish(obs.KindDeploy, nc.n.Name, "activate:ok-reconciled")
			return nil
		case stErr == nil && staged == spec.Version:
			// Still staged: the activation never committed.
			d.setNodeError(nc.n, NodeStaged, actErr)
			c.publish(obs.KindDeploy, nc.n.Name, "activate:failed")
			return actErr
		default:
			// Unreachable or in an unexpected state: its convergence
			// cannot be confirmed.
			d.setNodeError(nc.n, NodeFailed, actErr)
			c.publish(obs.KindDeploy, nc.n.Name, "activate:unknown")
			return actErr
		}
	})
	if err := firstErr(errs); err != nil {
		c.rollback(ctx, d, spec.Version)
		c.ctRolledBack.Inc()
		rbErr := fmt.Errorf("fleet: activate failed on [%s], fleet rolled back to previous versions: %w",
			failedNames(d, errs), err)
		d.finish(StateRolledBack, rbErr)
		c.persist(d)
		c.logf("fleet: deployment %d: rolled back: %v", d.ID, rbErr)
		return d, rbErr
	}

	d.finish(StateActive, nil)
	c.persist(d)
	c.ctActive.Inc()
	c.logf("fleet: deployment %d: version %s active on all %d node(s)", d.ID, spec.Version, len(targets))
	return d, nil
}

// rollback converges every reachable node back to its pre-rollout
// version: activated nodes are rolled back, staged nodes aborted.
func (c *Controller) rollback(ctx context.Context, d *Deployment, version string) {
	c.forEach(d, func(nc *nodeClient) error {
		switch nc.status() {
		case NodeActive:
			restored, err := nc.rollback(ctx, version)
			if err != nil {
				d.setNodeError(nc.n, NodeFailed, fmt.Errorf("rollback: %w", err))
				c.publish(obs.KindRollback, nc.n.Name, "failed")
				return err
			}
			d.setStatus(nc.n, NodeRolledBack)
			c.ctNodeRollbacks.Inc()
			c.publish(obs.KindRollback, nc.n.Name, "restored:"+restored)
			return nil
		case NodeStaged:
			if err := nc.abortStage(ctx, version); err != nil {
				d.setNodeError(nc.n, NodeFailed, fmt.Errorf("aborting stage: %w", err))
				c.publish(obs.KindRollback, nc.n.Name, "failed")
				return err
			}
			// The node never activated the new version: aborting the
			// stage leaves it converged on its previous version.
			d.setStatus(nc.n, NodeRolledBack)
			c.publish(obs.KindRollback, nc.n.Name, "stage-aborted")
			return nil
		default:
			return nil
		}
	})
}

func (nc *nodeClient) status() NodeStatus {
	nc.d.mu.Lock()
	defer nc.d.mu.Unlock()
	return nc.n.Status
}

func (c *Controller) fail(d *Deployment, err error) error {
	d.finish(StateFailed, err)
	c.persist(d)
	c.ctFailed.Inc()
	c.logf("fleet: deployment %d: failed: %v", d.ID, err)
	return err
}

// sleep routes through the controller's hook (tests replace it).
func (c *Controller) sleep(ctx context.Context, d time.Duration) { c.sleepFn(ctx, d) }
