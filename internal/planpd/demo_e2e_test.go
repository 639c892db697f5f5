package planpd_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"planp.dev/planp/asp"
	"planp.dev/planp/internal/apps/httpd"
	"planp.dev/planp/internal/substrate"
	"planp.dev/planp/internal/testbed"
)

// demoRig runs the planpd demo the way `planpd` boots it: the embedded
// demo topology on testbed daemons in this process, each daemon's
// control API on a real loopback listener, driven over HTTP. A tap on
// the client node counts responses and how many came from the virtual
// server.
type demoRig struct {
	topo    *testbed.Topology
	daemons map[string]*testbed.Daemon

	responses, fromVirtual atomic.Int64
}

// newDemoRig boots the demo. split runs it as two daemons — client and
// gateway on "front", the servers on "back" — so the gateway-server
// links are handshaked remote links carrying real UDP through the
// kernel.
func newDemoRig(t *testing.T, split bool) *demoRig {
	t.Helper()
	topo := testbed.Demo()
	if split {
		topo.Daemons = []testbed.DaemonSpec{{Name: "front"}, {Name: "back"}}
		for i := range topo.Nodes {
			topo.Nodes[i].Daemon = "front"
			if strings.HasPrefix(topo.Nodes[i].Name, "server") {
				topo.Nodes[i].Daemon = "back"
			}
		}
		for i := range topo.Links {
			if l := &topo.Links[i]; l.A == "gateway" {
				l.AUDP, l.BUDP = freeUDPAddr(t), freeUDPAddr(t)
			}
		}
	}
	lns := map[string]net.Listener{}
	for i := range topo.Daemons {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		lns[topo.Daemons[i].Name] = ln
		topo.Daemons[i].Control = ln.Addr().String()
	}
	// Round-trip the edited topology through the parser so it is
	// validated like a file would be.
	raw, err := json.Marshal(topo)
	if err != nil {
		t.Fatal(err)
	}
	if topo, err = testbed.ParseTopology(raw); err != nil {
		t.Fatal(err)
	}

	r := &demoRig{topo: topo, daemons: map[string]*testbed.Daemon{}}
	// Build every daemon before starting any, so each remote link's
	// first HELLO finds its peer's socket already bound.
	for _, spec := range topo.Daemons {
		d, err := testbed.NewDaemon(topo, spec.Name, testbed.Options{
			Logf: t.Logf, ProbeInterval: 25 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Close)
		r.daemons[spec.Name] = d
	}
	r.owner("client").Node("client").BindRaw(func(pkt *substrate.Packet) {
		if pkt.TCP == nil {
			return
		}
		r.responses.Add(1)
		if pkt.IP.Src == httpd.VirtualAddr {
			r.fromVirtual.Add(1)
		}
	})
	for name, d := range r.daemons {
		srv := &http.Server{Handler: d.Handler()}
		go srv.Serve(lns[name])
		t.Cleanup(func() { srv.Close() })
		d.Start()
	}
	for name, d := range r.daemons {
		if down := d.WaitLinksUp(5 * time.Second); len(down) > 0 {
			t.Fatalf("daemon %s links still down: %v", name, down)
		}
	}
	return r
}

// freeUDPAddr reserves a loopback UDP port by binding and closing; the
// remote link rebinds it immediately after.
func freeUDPAddr(t *testing.T) string {
	t.Helper()
	c, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	return c.LocalAddr().String()
}

// owner returns the daemon that owns node.
func (r *demoRig) owner(node string) *testbed.Daemon {
	for _, d := range r.daemons {
		if d.Node(node) != nil {
			return d
		}
	}
	return nil
}

// nodeURL is the node's control API base URL.
func (r *demoRig) nodeURL(node string) string {
	url, _ := r.topo.NodeURL(node)
	return url
}

// inject sends n HTTP requests from the client to the virtual server
// through the client daemon's traffic generator.
func (r *demoRig) inject(t *testing.T, n int) {
	t.Helper()
	d := r.owner("client")
	resp, err := http.Post(fmt.Sprintf("http://%s/inject?from=client&to=%s&proto=tcp&n=%d",
		d.Spec.Control, httpd.VirtualAddr, n), "", nil)
	if err != nil {
		t.Error(err)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("inject: HTTP %d", resp.StatusCode)
	}
}

// settle waits until every daemon's network is quiet. Two passes: a
// reply crossing to another daemon can wake a network the first pass
// already saw quiet.
func (r *demoRig) settle(t *testing.T, timeout time.Duration) {
	t.Helper()
	for pass := 0; pass < 2; pass++ {
		for name, d := range r.daemons {
			if !d.Net.Quiesce(timeout) {
				t.Fatalf("daemon %s did not quiesce", name)
			}
		}
	}
}

// wantActive checks the version node's API reports as active, on both
// GET /asp and GET /healthz.
func (r *demoRig) wantActive(t *testing.T, node, version string) {
	t.Helper()
	var status struct {
		Active string `json:"active"`
	}
	getJSON(t, r.nodeURL(node)+"/asp", &status)
	var health struct {
		Version string `json:"version"`
	}
	getJSON(t, r.nodeURL(node)+"/healthz", &health)
	if status.Active != version || health.Version != version {
		t.Fatalf("%s: /asp active %q, /healthz version %q; want %q", node, status.Active, health.Version, version)
	}
}

// served reads how many requests a server node has answered.
func (r *demoRig) served(t *testing.T, server string) int64 {
	t.Helper()
	var stats struct {
		Stats map[string]int64 `json:"stats"`
	}
	getJSON(t, r.nodeURL(server)+"/stats", &stats)
	return stats.Stats["testbed."+server+".http_served"]
}

// driveE2E runs the full live-download story on the demo: download the
// load-balancing ASP onto the RUNNING gateway over real HTTP, fire
// requests at the virtual server, and check they were answered by both
// physical servers with responses masqueraded as the virtual one.
func driveE2E(t *testing.T, split bool) {
	r := newDemoRig(t, split)
	gw := r.nodeURL("gateway")

	// The daemon is alive and no protocol is installed yet.
	var health struct {
		OK   bool   `json:"ok"`
		Node string `json:"node"`
		ASP  bool   `json:"asp"`
	}
	getJSON(t, gw+"/healthz", &health)
	if !health.OK || health.Node != "gateway" || health.ASP {
		t.Fatalf("unexpected health: %+v", health)
	}

	// Download the gateway ASP onto the live node.
	resp, err := http.Post(gw+"/asp?verify=single", "text/plain",
		strings.NewReader(asp.HTTPGateway))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /asp: %d: %s", resp.StatusCode, body)
	}
	getJSON(t, gw+"/healthz", &health)
	if !health.ASP {
		t.Fatalf("healthz does not report the installed protocol")
	}

	// A second download must be refused while one is installed.
	resp, err = http.Post(gw+"/asp?verify=single", "text/plain",
		strings.NewReader(asp.HTTPGateway))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second POST /asp: got %d, want 409", resp.StatusCode)
	}

	// Serve real traffic through the downloaded protocol.
	const requests = 120
	r.inject(t, requests)
	r.settle(t, 20*time.Second)

	s0, s1 := r.served(t, "server0"), r.served(t, "server1")
	if s0+s1 < 100 {
		t.Fatalf("servers answered %d+%d requests, want >= 100 of %d", s0, s1, requests)
	}
	if s0 == 0 || s1 == 0 {
		t.Fatalf("load balancing failed: server0=%d server1=%d", s0, s1)
	}
	if total, fromVirtual := r.responses.Load(), r.fromVirtual.Load(); fromVirtual < 100 {
		t.Fatalf("client saw %d responses, only %d from the virtual server", total, fromVirtual)
	}

	// The stats endpoint reflects the traffic and stamps the snapshot
	// with a monotonic timestamp for windowed-rate pollers.
	var stats struct {
		Node   string           `json:"node"`
		MonoNS int64            `json:"mono_ns"`
		Stats  map[string]int64 `json:"stats"`
	}
	getJSON(t, gw+"/stats", &stats)
	if stats.Stats["node.gateway.received_pkts"] == 0 {
		t.Fatalf("stats show no gateway traffic: %v", stats.Stats)
	}
	if stats.MonoNS <= 0 {
		t.Fatalf("stats snapshot missing monotonic timestamp: %d", stats.MonoNS)
	}

	// Withdraw the protocol: the cluster falls back to dumb forwarding,
	// so new requests to the virtual address go unanswered.
	req, _ := http.NewRequest(http.MethodDelete, gw+"/asp", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /asp: %d", resp.StatusCode)
	}
	getJSON(t, gw+"/healthz", &health)
	if health.ASP {
		t.Fatalf("healthz still reports a protocol after DELETE")
	}
	r.inject(t, 1)
	r.settle(t, 5*time.Second)
	if r.served(t, "server0") != s0 || r.served(t, "server1") != s1 {
		t.Fatalf("requests still balanced after uninstall")
	}
}

// TestGatewayDownloadE2E: the demo on one daemon, in-process channel
// links.
func TestGatewayDownloadE2E(t *testing.T) {
	driveE2E(t, false)
}

// TestGatewayDownloadE2E_UDP: the same story with the demo split
// across two daemons — the gateway-server links are remote links, so
// the packets really cross the kernel.
func TestGatewayDownloadE2E_UDP(t *testing.T) {
	driveE2E(t, true)
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
