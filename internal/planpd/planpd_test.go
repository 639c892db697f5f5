package planpd

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"planp.dev/planp/asp"
)

// driveE2E runs the full live-download story against a cluster: boot the
// nodes, download the load-balancing ASP onto the RUNNING gateway over
// real HTTP, fire requests at the virtual server, and check they were
// answered by both physical servers with responses masqueraded as the
// virtual one.
func driveE2E(t *testing.T, udp bool) {
	cluster, err := NewCluster(udp)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cluster.Start()

	ctl := httptest.NewServer(NewServer(cluster.Gateway, io.Discard).Handler())
	defer ctl.Close()

	// The daemon is alive and no protocol is installed yet.
	var health struct {
		OK   bool   `json:"ok"`
		Node string `json:"node"`
		ASP  bool   `json:"asp"`
	}
	getJSON(t, ctl.URL+"/healthz", &health)
	if !health.OK || health.Node != "gateway" || health.ASP {
		t.Fatalf("unexpected health: %+v", health)
	}

	// Download the gateway ASP onto the live node.
	resp, err := http.Post(ctl.URL+"/asp?verify=single", "text/plain",
		strings.NewReader(asp.HTTPGateway))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /asp: %d: %s", resp.StatusCode, body)
	}
	getJSON(t, ctl.URL+"/healthz", &health)
	if !health.ASP {
		t.Fatalf("healthz does not report the installed protocol")
	}

	// A second download must be refused while one is installed.
	resp, err = http.Post(ctl.URL+"/asp?verify=single", "text/plain",
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
	for i := 0; i < requests; i++ {
		cluster.SendRequest(uint16(20000 + i))
	}
	if !cluster.Net.Quiesce(20 * time.Second) {
		t.Fatalf("cluster did not quiesce")
	}

	s0, s1 := cluster.Served()
	if s0+s1 < 100 {
		t.Fatalf("servers answered %d+%d requests, want >= 100 of %d", s0, s1, requests)
	}
	if s0 == 0 || s1 == 0 {
		t.Fatalf("load balancing failed: server0=%d server1=%d", s0, s1)
	}
	total, fromVirtual := cluster.Responses()
	if fromVirtual < 100 {
		t.Fatalf("client saw %d responses, only %d from the virtual server", total, fromVirtual)
	}

	// The stats endpoint reflects the traffic and stamps the snapshot
	// with a monotonic timestamp for windowed-rate pollers.
	var stats struct {
		Node   string           `json:"node"`
		MonoNS int64            `json:"mono_ns"`
		Stats  map[string]int64 `json:"stats"`
	}
	getJSON(t, ctl.URL+"/stats", &stats)
	if stats.Stats["node.gateway.received_pkts"] == 0 {
		t.Fatalf("stats show no gateway traffic: %v", stats.Stats)
	}
	if stats.MonoNS <= 0 {
		t.Fatalf("stats snapshot missing monotonic timestamp: %d", stats.MonoNS)
	}

	// Withdraw the protocol: the cluster falls back to dumb forwarding,
	// so new requests to the virtual address go unanswered.
	req, _ := http.NewRequest(http.MethodDelete, ctl.URL+"/asp", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /asp: %d", resp.StatusCode)
	}
	getJSON(t, ctl.URL+"/healthz", &health)
	if health.ASP {
		t.Fatalf("healthz still reports a protocol after DELETE")
	}
	before0, before1 := cluster.Served()
	cluster.SendRequest(30000)
	cluster.Net.Quiesce(5 * time.Second)
	after0, after1 := cluster.Served()
	if after0 != before0 || after1 != before1 {
		t.Fatalf("requests still balanced after uninstall")
	}
}

// TestGatewayDownloadE2E: in-process channel links.
func TestGatewayDownloadE2E(t *testing.T) {
	driveE2E(t, false)
}

// TestGatewayDownloadE2E_UDP: the same story over loopback-UDP socket
// links — the packets really cross the kernel.
func TestGatewayDownloadE2E_UDP(t *testing.T) {
	driveE2E(t, true)
}

// TestInstallRejectsBrokenProtocol: the download pipeline's late
// checking surfaces as an HTTP-level rejection, not an install.
func TestInstallRejectsBrokenProtocol(t *testing.T) {
	cluster, err := NewCluster(false)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cluster.Start()
	ctl := httptest.NewServer(NewServer(cluster.Gateway, io.Discard).Handler())
	defer ctl.Close()

	resp, err := http.Post(ctl.URL+"/asp", "text/plain",
		strings.NewReader("fun broken( : int = nonsense"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("broken protocol: got %d, want 422", resp.StatusCode)
	}
	if cluster.Gateway.CurrentProcessor() != nil {
		t.Fatalf("broken protocol ended up installed")
	}

	resp, err = http.Post(ctl.URL+"/asp?engine=bytecode", "text/plain", strings.NewReader(stageForwarder))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown engine: got %d, want 400", resp.StatusCode)
	}
	if cluster.Gateway.CurrentProcessor() != nil {
		t.Fatalf("protocol for an unknown engine ended up installed")
	}
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
