// Multi-process end-to-end test: three planpd daemons as SEPARATE OS
// processes (`planpd up -topo f.json -daemon dN`), joined only by real
// UDP sockets and driven only through their HTTP control planes — the
// localhost stand-in for the multi-machine testbed. The flow is the
// issue's acceptance scenario: cluster bootstrap, a crafted
// version-mismatched handshake answered with a structured REJECT,
// fleet deploy across daemons, canary promotion, a remotely-injected
// chaos partition that auto-rolls the next canary back, and a SIGTERM
// goodbye the surviving peers log as link-down.
package testbed

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"planp.dev/planp/internal/substrate"
)

// buildPlanpd compiles the daemon binary once into the test's temp
// dir.
func buildPlanpd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "planpd")
	cmd := exec.Command("go", "build", "-o", bin, "planp.dev/planp/cmd/planpd")
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build planpd: %v\n%s", err, out)
	}
	return bin
}

func repoRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	return filepath.Dir(strings.TrimSpace(string(out)))
}

// freeTCPPorts reserves n loopback TCP ports by binding and closing.
func freeTCPPorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

// proc is one spawned daemon process. done closes when the process
// exits, so both term and the cleanup can wait on it.
type proc struct {
	cmd  *exec.Cmd
	err  error
	done chan struct{}
}

func spawn(t *testing.T, bin, topoPath, daemon string) *proc {
	t.Helper()
	return start(t, bin, "up", "-topo", topoPath, "-daemon", daemon, "-probe", "50ms")
}

// start runs the planpd binary with args as a daemon process.
func start(t *testing.T, bin string, args ...string) *proc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	t.Cleanup(func() {
		cmd.Process.Signal(syscall.SIGKILL)
		select {
		case <-p.done:
		case <-time.After(10 * time.Second):
			t.Errorf("planpd %v did not die on SIGKILL", args)
		}
	})
	return p
}

// term SIGTERMs the process and asserts a clean exit.
func (p *proc) term(t *testing.T) {
	t.Helper()
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
		if p.err != nil {
			t.Fatalf("daemon exit after SIGTERM: %v", p.err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
}

// waitHTTP polls a URL until it answers 200.
func waitHTTP(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("%s never came up", url)
}

// linkStates fetches a daemon's /links as link-name -> state.
func linkStates(t *testing.T, base string) map[string]string {
	t.Helper()
	var body struct {
		Links []LinkStatus `json:"links"`
	}
	resp, err := http.Get(base + "/links")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	states := map[string]string{}
	for _, l := range body.Links {
		states[l.Link] = l.State
	}
	return states
}

func waitLinkState(t *testing.T, base, link, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var got string
	for time.Now().Before(deadline) {
		got = linkStates(t, base)[link]
		if got == want {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("link %s on %s stuck in %q, want %q", link, base, got, want)
}

func nodeStat(t *testing.T, base, node, metric string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/node/" + node + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Stats map[string]float64 `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body.Stats[metric]
}

func waitNodeStat(t *testing.T, base, node, metric string, ok func(float64) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var v float64
	for time.Now().Before(deadline) {
		v = nodeStat(t, base, node, metric)
		if ok(v) {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("%s/%s %s stuck at %v", base, node, metric, v)
}

// badVersionHello encodes a HELLO frame claiming protocol version
// current+1 with otherwise-correct identity — the version-skew probe.
func badVersionHello(node string, addr substrate.Addr, link string, bw int64) []byte {
	b := []byte{0x02} // frameHello
	b = binary.BigEndian.AppendUint16(b, 2)
	b = binary.BigEndian.AppendUint64(b, 0xdecafbad)
	b = binary.BigEndian.AppendUint32(b, uint32(addr))
	b = binary.BigEndian.AppendUint64(b, uint64(bw))
	b = append(b, byte(len(node)))
	b = append(b, node...)
	b = append(b, byte(len(link)))
	b = append(b, link...)
	return b
}

// TestMultiProcessTestbedE2E is the distributed acceptance run. Slow
// (builds the binary, real canary windows); skipped under -short.
func TestMultiProcessTestbedE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e")
	}
	bin := buildPlanpd(t)

	ctrl := freeTCPPorts(t, 3)
	udp := freeUDPPorts(t, 4)
	topoJSON := fmt.Sprintf(`{
	  "name": "e2e",
	  "daemons": [
	    {"name": "d1", "control": %q},
	    {"name": "d2", "control": %q},
	    {"name": "d3", "control": %q}
	  ],
	  "nodes": [
	    {"name": "gw", "addr": "10.0.0.1", "daemon": "d1", "forwarding": true},
	    {"name": "s0", "addr": "10.0.0.2", "daemon": "d2"},
	    {"name": "s1", "addr": "10.0.0.3", "daemon": "d3"}
	  ],
	  "links": [
	    {"a": "gw", "b": "s0", "a_udp": %q, "b_udp": %q},
	    {"a": "gw", "b": "s1", "a_udp": %q, "b_udp": %q}
	  ]
	}`, ctrl[0], ctrl[1], ctrl[2], udp[0], udp[1], udp[2], udp[3])
	topoPath := filepath.Join(t.TempDir(), "testbed.json")
	if err := os.WriteFile(topoPath, []byte(topoJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	base1 := "http://" + ctrl[0]
	base2 := "http://" + ctrl[1]
	base3 := "http://" + ctrl[2]

	// Phase 1: d1 and d3 come up; gw-s1 handshakes, gw-s0 waits for its
	// absent peer.
	d1 := spawn(t, bin, topoPath, "d1")
	d3 := spawn(t, bin, topoPath, "d3")
	waitHTTP(t, base1+"/healthz")
	waitHTTP(t, base3+"/healthz")
	waitLinkState(t, base1, "gw-s1", "up")

	// Phase 2: before d2 exists, impersonate it from its own UDP
	// endpoint with a version-skewed HELLO. The daemon must answer with
	// a structured REJECT (code 1 = version), not silence.
	raw, err := net.ListenPacket("udp", udp[1])
	if err != nil {
		t.Fatal(err)
	}
	peer, _ := net.ResolveUDPAddr("udp", udp[0])
	hello := badVersionHello("s0", substrate.MustAddr("10.0.0.2"), "gw-s0", DefaultBandwidth)
	gotReject := false
	deadline := time.Now().Add(10 * time.Second)
	buf := make([]byte, 2048)
	for !gotReject && time.Now().Before(deadline) {
		if _, err := raw.WriteTo(hello, peer); err != nil {
			t.Fatal(err)
		}
		raw.SetReadDeadline(time.Now().Add(250 * time.Millisecond))
		for {
			n, _, err := raw.ReadFrom(buf)
			if err != nil {
				break
			}
			if n >= 2 && buf[0] == 0x04 { // frameReject
				if code := buf[1]; code != 1 {
					t.Fatalf("reject code = %d, want 1 (version)", code)
				}
				msg := string(buf[5:n])
				if !strings.Contains(msg, "version") {
					t.Fatalf("reject message %q does not mention version", msg)
				}
				gotReject = true
				break
			}
		}
	}
	raw.Close()
	if !gotReject {
		t.Fatal("version-skewed HELLO never drew a REJECT")
	}
	waitNodeStat(t, base1, "gw", "rtnet.handshake_rejected",
		func(v float64) bool { return v >= 1 })

	// Phase 3: the real d2 arrives on the same endpoint; the full
	// 3-daemon cluster converges.
	d2 := spawn(t, bin, topoPath, "d2")
	waitHTTP(t, base2+"/healthz")
	waitLinkState(t, base1, "gw-s0", "up")
	waitLinkState(t, base2, "gw-s0", "up")

	// Traffic crosses daemons before any protocol is installed.
	resp, err := http.Post(base1+"/inject?from=gw&to=s0&n=20", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitNodeStat(t, base2, "s0", "testbed.s0.rx_pkts",
		func(v float64) bool { return v >= 20 })

	// Phase 4: fleet deploy v1 to all three nodes through d1's
	// coordinator; every daemon's node reports it active.
	resp, err = http.Post(base1+"/deploy?version=v1&nodes=gw,s0,s1",
		"text/plain", strings.NewReader(forwarder))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deploy: HTTP %d: %s", resp.StatusCode, body)
	}
	for base, node := range map[string]string{base1: "gw", base2: "s0", base3: "s1"} {
		r, err := http.Get(base + "/node/" + node + "/asp")
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			Active string `json:"active"`
		}
		json.NewDecoder(r.Body).Decode(&st)
		r.Body.Close()
		if st.Active != "v1" {
			t.Fatalf("%s/%s active = %q, want v1", base, node, st.Active)
		}
	}

	// Background probe traffic keeps the guarded link metric live.
	stopTraffic := make(chan struct{})
	defer close(stopTraffic)
	go func() {
		for {
			select {
			case <-stopTraffic:
				return
			case <-time.After(20 * time.Millisecond):
				if r, err := http.Post(base1+"/inject?from=gw&to=s0&n=5", "", nil); err == nil {
					r.Body.Close()
				}
			}
		}
	}()

	// Phase 5: healthy canary promotes v2 from gw to the servers.
	runCanary := func(version, source string) string {
		req := map[string]any{
			"version": version,
			"source":  source,
			"canary":  []map[string]string{{"name": "gw", "url": base1 + "/node/gw"}},
			"baseline": []map[string]string{
				{"name": "s0", "url": base2 + "/node/s0"},
				{"name": "s1", "url": base3 + "/node/s1"},
			},
			"guards":      []string{"link.gw:s0.fault_dropped_pkts<=0.5"},
			"windows":     2,
			"interval_ms": 250,
			"timeout_ms":  20000,
		}
		reqBody, _ := json.Marshal(req)
		resp, err := http.Post(base1+"/adapt", "application/json", bytes.NewReader(reqBody))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("adapt %s: HTTP %d", version, resp.StatusCode)
		}
		deadline := time.Now().Add(25 * time.Second)
		for time.Now().Before(deadline) {
			r, err := http.Get(base1 + "/adapt")
			if err != nil {
				t.Fatal(err)
			}
			var runs struct {
				Runs []struct {
					Version string `json:"version"`
					Verdict string `json:"verdict"`
				} `json:"runs"`
			}
			json.NewDecoder(r.Body).Decode(&runs)
			r.Body.Close()
			for _, run := range runs.Runs {
				if run.Version == version && run.Verdict != "" {
					return run.Verdict
				}
			}
			time.Sleep(50 * time.Millisecond)
		}
		t.Fatalf("canary %s never finished", version)
		return ""
	}
	if v := runCanary("v2", forwarderV2); v != "promoted" {
		t.Fatalf("healthy canary verdict = %q, want promoted", v)
	}

	// Phase 6: remotely-injected partition (HTTP one-shot /chaos/start
	// on d1) blackholes gw->s0; the v3 canary's guard trips and the
	// controller rolls it back on its own.
	timeline := `{"name": "part", "steps": [{"at_ms": 0, "op": "down", "link": "gw-s0"}]}`
	resp, err = http.Post(base1+"/chaos/start", "application/json", strings.NewReader(timeline))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chaos start: HTTP %d", resp.StatusCode)
	}
	if v := runCanary("v3", forwarder); v != "rolled-back" {
		t.Fatalf("partitioned canary verdict = %q, want rolled-back", v)
	}
	r, err := http.Get(base1 + "/node/gw/asp")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Active string `json:"active"`
	}
	json.NewDecoder(r.Body).Decode(&st)
	r.Body.Close()
	if st.Active != "v2" {
		t.Fatalf("gw active = %q after rollback, want v2", st.Active)
	}

	// Heal via the chaos CLI (exercises `planpd chaos stop`).
	out, err := exec.Command(bin, "chaos", "stop", "-daemon", base1, "-clear").CombinedOutput()
	if err != nil {
		t.Fatalf("planpd chaos stop: %v\n%s", err, out)
	}
	out, err = exec.Command(bin, "chaos", "status", "-daemon", base1).CombinedOutput()
	if err != nil || !bytes.Contains(out, []byte(`"part"`)) {
		t.Fatalf("planpd chaos status: %v\n%s", err, out)
	}

	// Phase 7: graceful shutdown. SIGTERM d3: its links BYE their peers,
	// so d1 logs goodbye-down instead of waiting out a probe timeout.
	d3.term(t)
	waitLinkState(t, base1, "gw-s1", "down")
	waitNodeStat(t, base1, "gw", "rtnet.goodbyes",
		func(v float64) bool { return v >= 1 })

	d2.term(t)
	d1.term(t)
}

// TestServeDemoE2E drives `planpd` with no subcommand — the embedded
// demo topology on one daemon — as a separate process: download the
// gateway ASP onto the running gateway, send HTTP requests at the
// virtual server through /inject, watch both servers answer, and shut
// down cleanly on SIGTERM. Skipped under -short (builds the binary).
func TestServeDemoE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e")
	}
	bin := buildPlanpd(t)
	listen := freeTCPPorts(t, 1)[0]
	base := "http://" + listen
	p := start(t, bin, "-listen", listen)
	waitHTTP(t, base+"/healthz")

	src, err := os.ReadFile(filepath.Join(repoRoot(t), "asp", "http_gateway.planp"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/node/gateway/asp?verify=single", "text/plain", bytes.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /node/gateway/asp: HTTP %d: %s", resp.StatusCode, body)
	}

	resp, err = http.Post(base+"/inject?from=client&to=10.0.0.100&proto=tcp&n=120", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inject: HTTP %d: %s", resp.StatusCode, body)
	}
	for _, server := range []string{"server0", "server1"} {
		waitNodeStat(t, base, server, "testbed."+server+".http_served",
			func(v float64) bool { return v > 0 })
	}
	p.term(t)
}
