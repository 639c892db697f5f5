// The testbed daemon: one planpd process's share of the distributed
// testbed. From the shared topology and its own name it assembles the
// local rtnet network — its nodes, the in-process links between them,
// and the UDP endpoints of every cross-daemon link — then mounts the
// full control plane over them: per-node protocol management, the
// fleet rollout controller, the adaptation loop, and the remote chaos
// API.
package testbed

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"planp.dev/planp/internal/adapt"
	"planp.dev/planp/internal/chaos"
	"planp.dev/planp/internal/fleet"
	"planp.dev/planp/internal/lang/diag"
	"planp.dev/planp/internal/planpd"
	"planp.dev/planp/internal/rtnet"
	"planp.dev/planp/internal/substrate"
)

// The ports of every node's stock services (see NewDaemon).
const (
	discardPort = 7
	httpPort    = 80
)

// Options tunes a daemon. The zero value works.
type Options struct {
	// Out receives installed protocols' print output (nil discards).
	Out io.Writer
	// Logf receives the fleet/adapt controllers' decision log.
	Logf func(format string, args ...any)
	// HistoryPath persists this daemon's deployment history.
	HistoryPath string
	// ProbeInterval overrides the cross-host links' liveness cadence
	// (tests shrink it to detect partitions fast).
	ProbeInterval time.Duration
}

// Daemon is one planpd process's slice of the testbed.
type Daemon struct {
	Topo *Topology
	Spec DaemonSpec

	// Net is the daemon's local real-time substrate.
	Net *rtnet.Net
	// Chaos is the daemon's fault engine: every local link direction is
	// wired under its topology-wide name, every local node adopted.
	Chaos *chaos.Engine
	// Fleet and Adapt are this daemon's rollout and adaptation
	// controllers; their targets may live on any daemon in the testbed.
	Fleet *fleet.Controller
	Adapt *adapt.Controller

	nodes   map[string]*rtnet.Node
	remotes []*rtnet.RemoteIface
	chs     *planpd.ChaosServer
	out     io.Writer
	// connSeq numbers /inject's TCP connections: each request gets a
	// fresh client port, so per-connection gateway policies see
	// distinct connections.
	connSeq atomic.Uint32
}

// NewDaemon assembles daemon name's share of topo: local nodes,
// daemon-local links, the local endpoints of cross-daemon links
// (sockets bind immediately; handshakes start at Start), derived plus
// explicit routes, and the chaos wiring. The returned daemon is built
// but not running — call Start.
func NewDaemon(topo *Topology, name string, opts Options) (*Daemon, error) {
	spec, err := topo.Daemon(name)
	if err != nil {
		return nil, err
	}
	if opts.Out == nil {
		opts.Out = io.Discard
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}

	// Deterministic per-daemon seed: position in the shared file.
	seed := int64(1)
	for i, d := range topo.Daemons {
		if d.Name == name {
			seed = int64(i + 1)
		}
	}

	nw := rtnet.New(seed)
	d := &Daemon{
		Topo: topo, Spec: spec, Net: nw,
		Chaos: chaos.New(nw, seed*7919+3),
		nodes: map[string]*rtnet.Node{},
	}
	ok := false
	defer func() {
		if !ok {
			nw.Close()
		}
	}()

	// Local nodes. Every node counts discard-port datagrams
	// (`testbed.<node>.rx_pkts`) and answered HTTP requests
	// (`testbed.<node>.http_served`), so /inject traffic is observable
	// end to end through GET /stats without any protocol installed —
	// the bare-network baseline an ASP download then changes.
	for _, n := range topo.Nodes {
		if n.Daemon != name {
			continue
		}
		node := rtnet.NewNode(nw, n.Name, substrate.MustAddr(n.Addr))
		node.Forwarding = n.Forwarding
		rx := nw.Metrics().Counter("testbed." + n.Name + ".rx_pkts")
		node.BindUDP(discardPort, func(*substrate.Packet) { rx.Add(1) })
		served := nw.Metrics().Counter("testbed." + n.Name + ".http_served")
		node.BindTCP(httpPort, func(req *substrate.Packet) {
			if req.TCP.Flags&substrate.FlagSyn == 0 {
				return
			}
			served.Add(1)
			resp := substrate.NewTCP(node.Address(), req.IP.Src, httpPort, req.TCP.SrcPort, 0,
				substrate.FlagAck|substrate.FlagFin, []byte("hello"))
			node.Send(resp.Own())
		})
		d.nodes[n.Name] = node
		d.Chaos.Adopt(node)
	}
	if len(d.nodes) == 0 {
		return nil, fmt.Errorf("testbed: daemon %q owns no nodes in topology %q", name, topo.Name)
	}

	// Links: in-process between two local nodes, a UDP endpoint when the
	// far node belongs to another daemon. outIface[n][peer] retains node
	// n's interface toward neighbor peer for route installation.
	outIface := map[string]map[string]substrate.Iface{}
	retain := func(node, peer string, ifc substrate.Iface) {
		if outIface[node] == nil {
			outIface[node] = map[string]substrate.Iface{}
		}
		outIface[node][peer] = ifc
	}
	for _, l := range topo.Links {
		la, aLocal := d.nodes[l.A]
		lb, bLocal := d.nodes[l.B]
		switch {
		case aLocal && bLocal:
			ab, ba := rtnet.NewLink(nw, la, lb, l.Bandwidth())
			retain(l.A, l.B, ab)
			retain(l.B, l.A, ba)
			d.Chaos.WireDuplex(l.Name(),
				[]substrate.FaultPort{ab}, []substrate.FaultPort{ba})
		case aLocal || bLocal:
			// This daemon owns one end: open its socket, expect the peer
			// daemon's node on the other. The link keeps its topology-wide
			// name on both sides (the handshake enforces agreement), and
			// the chaos wiring claims only the locally-owned direction —
			// fwd is always the first-named node's outbound, so the two
			// daemons' /chaos surfaces compose into one duplex link.
			local, localName, peerName := la, l.A, l.B
			listen, peer := l.AUDP, l.BUDP
			if bLocal {
				local, localName, peerName = lb, l.B, l.A
				listen, peer = l.BUDP, l.AUDP
			}
			pn, _ := topo.NodeSpecOf(peerName)
			ri, err := rtnet.NewRemoteLink(nw, local, rtnet.RemoteSpec{
				LinkName:      l.Name(),
				Listen:        listen,
				Peer:          peer,
				PeerNode:      peerName,
				PeerAddr:      substrate.MustAddr(pn.Addr),
				BandwidthBps:  l.Bandwidth(),
				ProbeInterval: opts.ProbeInterval,
			})
			if err != nil {
				return nil, err
			}
			d.remotes = append(d.remotes, ri)
			retain(localName, peerName, ri)
			if aLocal {
				d.Chaos.WireDuplex(l.Name(), []substrate.FaultPort{ri}, nil)
			} else {
				d.Chaos.WireDuplex(l.Name(), nil, []substrate.FaultPort{ri})
			}
		}
	}

	// Routes: shortest-path next hops derived from the shared link
	// graph (identical on every daemon), explicit extras layered on
	// top, and a default route for single-homed nodes so traffic to
	// virtual addresses heads into the network.
	for nodeName, node := range d.nodes {
		hops := topo.NextHops(nodeName)
		for dst, via := range hops {
			ds, _ := topo.NodeSpecOf(dst)
			node.AddRoute(substrate.MustAddr(ds.Addr), outIface[nodeName][via])
		}
		if len(outIface[nodeName]) == 1 {
			for _, ifc := range outIface[nodeName] {
				node.SetDefaultRoute(ifc)
			}
		}
	}
	for _, r := range topo.Routes {
		node, local := d.nodes[r.Node]
		if !local {
			continue
		}
		ifc := outIface[r.Node][r.Via]
		if ifc == nil {
			return nil, fmt.Errorf("testbed: route on %q via %q: no local interface", r.Node, r.Via)
		}
		node.AddRoute(substrate.MustAddr(r.Dst), ifc)
	}

	d.Fleet = fleet.New(fleet.Config{Logf: opts.Logf, HistoryPath: opts.HistoryPath})
	d.Adapt = adapt.New(adapt.Config{Fleet: d.Fleet, Logf: opts.Logf})
	d.chs = planpd.NewChaosServer(d.Chaos)
	d.out = opts.Out
	ok = true
	return d, nil
}

// Node returns a local node by name (nil when the node lives on
// another daemon).
func (d *Daemon) Node(name string) *rtnet.Node { return d.nodes[name] }

// Remotes returns the daemon's cross-host link endpoints.
func (d *Daemon) Remotes() []*rtnet.RemoteIface { return d.remotes }

// Start launches the local node goroutines; cross-daemon handshakes
// proceed as soon as the peer daemons come up.
func (d *Daemon) Start() { d.Net.Start() }

// Drain waits for this daemon's background adaptation runs (ctx bounds
// the wait; expiry cancels the stragglers). Part of graceful shutdown:
// stop accepting HTTP, Drain, then Close.
func (d *Daemon) Drain(ctx context.Context) bool { return d.Adapt.Drain(ctx) }

// Close shuts the daemon's substrate down. Remote links send BYE on
// the way out, so peers log link-down immediately.
func (d *Daemon) Close() { d.Net.Close() }

// WaitLinksUp blocks until every cross-daemon link endpoint reports
// up, or the timeout expires. Returns the names of links still not up.
func (d *Daemon) WaitLinksUp(timeout time.Duration) []string {
	deadline := time.Now().Add(timeout)
	for {
		var down []string
		for _, ri := range d.remotes {
			if !ri.Up() {
				down = append(down, ri.LinkName())
			}
		}
		if len(down) == 0 || time.Now().After(deadline) {
			sort.Strings(down)
			return down
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Handler returns the daemon's full control API:
//
//	/node/<name>/...  per-node protocol management (planpd.Server) for
//	                  every locally-owned node
//	/deployments      fleet rollout history and control
//	/deploy           POST: two-phase rollout; bare node names resolve
//	                  through the topology to ANY daemon's node mounts
//	/adapt            self-promoting canary runs
//	/chaos/...        remote chaos control plane (stage/start/stop/
//	                  status) over this daemon's links and nodes
//	/inject           POST: originate UDP probes or HTTP requests from
//	                  a local node
//	/links            cross-daemon link states (handshake, liveness,
//	                  last structured rejection)
//	/healthz          daemon identity, owned nodes, link summary
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	for name, node := range d.nodes {
		prefix := "/node/" + name
		mux.Handle(prefix+"/", http.StripPrefix(prefix, planpd.NewServer(node, d.out).Handler()))
	}
	mux.Handle("/deployments", d.Fleet.Handler())
	mux.Handle("/adapt", d.Adapt.Handler())
	mux.Handle("/chaos/", d.chs.Handler())
	mux.HandleFunc("/deploy", d.handleDeploy)
	mux.HandleFunc("/inject", d.handleInject)
	mux.HandleFunc("/links", d.handleLinks)
	mux.HandleFunc("/healthz", d.handleHealth)
	return mux
}

// handleInject is the testbed's traffic generator: POST
// /inject?from=<local node>&to=<node or address>&n=N[&proto=tcp] sends
// N UDP probes to the destination's discard port, or with proto=tcp N
// HTTP requests, each from a fresh client port. Enough to light up
// link metrics, exercise chaos faults, feed adaptation guards and
// drive a downloaded gateway without any application code.
func (d *Daemon) handleInject(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	from := d.nodes[q.Get("from")]
	if from == nil {
		http.Error(w, fmt.Sprintf("no local node %q", q.Get("from")), http.StatusBadRequest)
		return
	}
	var dst substrate.Addr
	if to, ok := d.Topo.NodeSpecOf(q.Get("to")); ok {
		dst = substrate.MustAddr(to.Addr)
	} else if addr, err := substrate.ParseAddr(q.Get("to")); err == nil {
		dst = addr
	} else {
		http.Error(w, fmt.Sprintf("no node or address %q in topology", q.Get("to")), http.StatusBadRequest)
		return
	}
	tcp := q.Get("proto") == "tcp"
	if p := q.Get("proto"); !tcp && p != "" && p != "udp" {
		http.Error(w, fmt.Sprintf("unknown proto %q (udp, tcp)", p), http.StatusBadRequest)
		return
	}
	n := 1
	if s := q.Get("n"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 || v > 1<<16 {
			http.Error(w, "n must be in [1, 65536]", http.StatusBadRequest)
			return
		}
		n = v
	}
	for i := 0; i < n; i++ {
		var pkt *substrate.Packet
		if tcp {
			// Client ports cycle through 1024..65535, clear of the
			// stock services' ports.
			port := uint16(1024 + d.connSeq.Add(1)%(1<<16-1024))
			pkt = substrate.NewTCP(from.Address(), dst, port, httpPort, 0, substrate.FlagSyn, nil)
		} else {
			pkt = substrate.NewUDP(from.Address(), dst, discardPort, discardPort, []byte("probe"))
		}
		from.Send(pkt.Own())
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"from": q.Get("from"), "to": q.Get("to"), "sent": n,
	})
}

func (d *Daemon) handleDeploy(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	// Bare node names resolve through the topology to the owning
	// daemon's /node mount — including nodes on other daemons.
	targets, err := fleet.ParseTargets(r.URL.Query().Get("nodes"), d.Topo.NodeURL)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20+1))
	if err != nil || len(body) > 1<<20 {
		http.Error(w, "bad protocol source", http.StatusBadRequest)
		return
	}
	spec := fleet.Spec{
		Version:           r.URL.Query().Get("version"),
		Source:            string(body),
		Engine:            r.URL.Query().Get("engine"),
		Verify:            r.URL.Query().Get("verify"),
		SourceName:        r.URL.Query().Get("src_name"),
		AllowIncompatible: r.URL.Query().Get("allow_incompatible") == "true",
	}
	dep, deployErr := d.Fleet.Deploy(r.Context(), spec, targets)
	status := http.StatusOK
	resp := map[string]any{}
	if deployErr != nil {
		status = http.StatusConflict
		resp["error"] = deployErr.Error()
		if ds := diag.Of(deployErr); len(ds) > 0 {
			status = http.StatusUnprocessableEntity
			resp["diagnostics"] = ds
		}
	}
	if dep != nil {
		resp["deployment"] = dep.View()
	}
	writeJSON(w, status, resp)
}

// LinkStatus is one cross-daemon link endpoint's state as /links
// reports it.
type LinkStatus struct {
	Link  string `json:"link"`
	Node  string `json:"node"`
	Peer  string `json:"peer"`
	State string `json:"state"`
	// Reject is the most recent structured handshake rejection received
	// from the peer, when there is one.
	Reject *rtnet.RejectError `json:"reject,omitempty"`
}

func (d *Daemon) linkStatuses() []LinkStatus {
	statuses := make([]LinkStatus, 0, len(d.remotes))
	for _, ri := range d.remotes {
		label := ri.Label()
		node, _, _ := strings.Cut(label, ":")
		statuses = append(statuses, LinkStatus{
			Link:   ri.LinkName(),
			Node:   node,
			Peer:   ri.PeerNode(),
			State:  ri.State(),
			Reject: ri.LastReject(),
		})
	}
	sort.Slice(statuses, func(i, j int) bool { return statuses[i].Link < statuses[j].Link })
	return statuses
}

func (d *Daemon) handleLinks(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"daemon": d.Spec.Name,
		"links":  d.linkStatuses(),
	})
}

func (d *Daemon) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	nodes := make([]string, 0, len(d.nodes))
	for name := range d.nodes {
		nodes = append(nodes, name)
	}
	sort.Strings(nodes)
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":      true,
		"testbed": d.Topo.Name,
		"daemon":  d.Spec.Name,
		"control": d.Spec.Control,
		"nodes":   nodes,
		"links":   d.linkStatuses(),
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
