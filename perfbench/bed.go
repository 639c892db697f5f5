package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"planp.dev/planp/asp"
	"planp.dev/planp/internal/rtnet"
	"planp.dev/planp/internal/substrate"
	"planp.dev/planp/internal/testbed"
)

// The §3.2 cluster's addresses: clients address the virtual server,
// the gateway ASP maps each connection onto one of the two physical
// servers and rewrites responses back to the virtual address.
var (
	vip      = substrate.MustAddr("10.0.0.100")
	clientIP = substrate.MustAddr("10.0.0.10")
)

// reqSize and respSize are the bodies of a request and of the answer
// each physical server sends back.
const (
	reqSize  = 64
	respSize = 512
)

// bedTopology is the in-process 3-daemon testbed: client and gateway on
// d1 over an in-process link, one physical server on each of d2 and d3
// over loopback-UDP remote links. Unrewritten virtual traffic (no
// gateway ASP active) heads for s0, which does not forward it.
const bedTopology = `{
  "name": "perfbench",
  "daemons": [
    {"name": "d1", "control": %q},
    {"name": "d2", "control": %q},
    {"name": "d3", "control": %q}
  ],
  "nodes": [
    {"name": "client", "addr": "10.0.0.10", "daemon": "d1"},
    {"name": "gw", "addr": "10.0.0.1", "daemon": "d1", "forwarding": true},
    {"name": "s0", "addr": "10.0.0.81", "daemon": "d2"},
    {"name": "s1", "addr": "10.0.0.109", "daemon": "d3"}
  ],
  "links": [
    {"a": "client", "b": "gw"},
    {"a": "gw", "b": "s0", "a_udp": %q, "b_udp": %q},
    {"a": "gw", "b": "s1", "a_udp": %q, "b_udp": %q}
  ],
  "routes": [
    {"node": "gw", "dst": "10.0.0.100", "via": "s0"}
  ]
}`

var daemonNames = []string{"d1", "d2", "d3"}

// bed is a running testbed, driven only through the testbed and rtnet
// public API and each daemon's HTTP control API.
type bed struct {
	daemons map[string]*testbed.Daemon
	base    map[string]string // daemon -> http://control
	srvs    []*http.Server
	serveWG sync.WaitGroup
	http    *http.Client

	client  *rtnet.Node
	reqBody []byte

	served [2]atomic.Int64 // requests each physical server answered

	// onResponse is the active load generator's handler for packets
	// delivered to the client node; it runs on that node's goroutine.
	onResponse atomic.Pointer[func(*substrate.Packet)]
}

// newBed builds, starts and connects the testbed and activates the
// round-robin gateway on gw. Every daemon's control API is served
// through spans.wrap.
func newBed(spans *spanRecorder) (b *bed, err error) {
	b = &bed{daemons: map[string]*testbed.Daemon{}, base: map[string]string{},
		http: &http.Client{Timeout: 30 * time.Second}, reqBody: make([]byte, reqSize)}
	lns := map[string]net.Listener{}
	defer func() {
		if err != nil {
			b.close()
			for _, ln := range lns {
				ln.Close() // a listener no server took over yet
			}
		}
	}()
	for _, name := range daemonNames {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return b, err
		}
		lns[name] = ln
	}
	udp, err := freeUDPPorts(4)
	if err != nil {
		return b, err
	}
	topo, err := testbed.ParseTopology([]byte(fmt.Sprintf(bedTopology,
		lns["d1"].Addr(), lns["d2"].Addr(), lns["d3"].Addr(), udp[0], udp[1], udp[2], udp[3])))
	if err != nil {
		return b, err
	}
	// Build every daemon before starting any, so each remote link's
	// first HELLO finds its peer's socket already bound.
	for _, name := range daemonNames {
		d, err := testbed.NewDaemon(topo, name, testbed.Options{})
		if err != nil {
			return b, err
		}
		b.daemons[name] = d
	}
	b.bindApps()
	for _, name := range daemonNames {
		d := b.daemons[name]
		d.Start()
		srv := &http.Server{Handler: spans.wrap(d.Handler())}
		b.srvs = append(b.srvs, srv)
		b.base[name] = "http://" + lns[name].Addr().String()
		b.serveWG.Add(1)
		go func(ln net.Listener) {
			defer b.serveWG.Done()
			srv.Serve(ln)
		}(lns[name])
	}
	if err := b.waitLinks(10 * time.Second); err != nil {
		return b, err
	}
	if _, err := b.deploy("g0", "gw", "single", asp.HTTPGateway); err != nil {
		return b, fmt.Errorf("first gateway: %w", err)
	}
	return b, nil
}

// freeUDPPorts reserves n loopback UDP ports by binding and closing;
// the remote links rebind them immediately after.
func freeUDPPorts(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		c, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = c.LocalAddr().String()
		c.Close()
	}
	return addrs, nil
}

// bindApps installs the servers' HTTP responders and the client's
// response tap.
func (b *bed) bindApps() {
	body := make([]byte, respSize)
	for i, name := range []string{"s0", "s1"} {
		i, node := i, b.node(name)
		node.BindTCP(80, func(req *substrate.Packet) {
			b.served[i].Add(1)
			node.Send(substrate.NewTCP(node.Address(), req.IP.Src, 80, req.TCP.SrcPort,
				req.TCP.Seq, substrate.FlagAck|substrate.FlagPsh, body).Own())
		})
	}
	b.client = b.node("client")
	b.client.BindRaw(func(pkt *substrate.Packet) {
		if fn := b.onResponse.Load(); fn != nil && pkt.TCP != nil {
			(*fn)(pkt)
		}
	})
}

// node finds a node on whichever daemon owns it.
func (b *bed) node(name string) *rtnet.Node {
	for _, d := range b.daemons {
		if n := d.Node(name); n != nil {
			return n
		}
	}
	return nil
}

// waitLinks polls every cross-daemon link until all are up.
func (b *bed) waitLinks(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		up := true
		for _, d := range b.daemons {
			for _, ri := range d.Remotes() {
				up = up && ri.Up()
			}
		}
		if up {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("testbed links did not come up")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// deployView is the part of a /deploy response the benchmark checks.
type deployView struct {
	Error      string `json:"error"`
	Deployment struct {
		Version string `json:"version"`
		State   string `json:"state"`
		Nodes   []struct {
			Name   string `json:"name"`
			Status string `json:"status"`
		} `json:"nodes"`
	} `json:"deployment"`
}

// deploy POSTs one rollout to d1's /deploy and returns its round trip.
// Anything but an Active deployment with every target Active is an
// error.
func (b *bed) deploy(version, nodes, verify, src string) (time.Duration, error) {
	url := fmt.Sprintf("%s/deploy?version=%s&nodes=%s", b.base["d1"], version, nodes)
	if verify != "" {
		url += "&verify=" + verify
	}
	start := time.Now()
	resp, err := b.http.Post(url, "text/plain", strings.NewReader(src))
	if err != nil {
		return 0, fmt.Errorf("deploy %s: %w", version, err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rtt := time.Since(start)
	if err != nil {
		return rtt, fmt.Errorf("deploy %s: %w", version, err)
	}
	var v deployView
	if err := json.Unmarshal(raw, &v); err != nil {
		return rtt, fmt.Errorf("deploy %s: HTTP %d: %s", version, resp.StatusCode, raw)
	}
	if resp.StatusCode != http.StatusOK || v.Deployment.State != "Active" || v.Deployment.Version != version {
		return rtt, fmt.Errorf("deploy %s: HTTP %d, state %q: %s", version, resp.StatusCode, v.Deployment.State, v.Error)
	}
	for _, n := range v.Deployment.Nodes {
		if n.Status != "Active" {
			return rtt, fmt.Errorf("deploy %s: node %s ended %s", version, n.Name, n.Status)
		}
	}
	return rtt, nil
}

// activeVersion reads the version a node runs from its daemon's
// GET /node/<name>/asp.
func (b *bed) activeVersion(daemon, node string) (string, error) {
	resp, err := b.http.Get(b.base[daemon] + "/node/" + node + "/asp")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var v struct {
		Active string `json:"active"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return "", fmt.Errorf("GET /node/%s/asp: %w", node, err)
	}
	return v.Active, nil
}

// counters sums every daemon's metrics registry snapshot.
func (b *bed) counters() map[string]int64 {
	sum := map[string]int64{}
	for _, d := range b.daemons {
		for k, v := range d.Net.Metrics().Snapshot() {
			sum[k] += v
		}
	}
	return sum
}

// sendRequest originates one HTTP request packet, opening a new
// connection, from the client to the virtual server.
func (b *bed) sendRequest(sport uint16, seq uint32) {
	b.client.Send(substrate.NewTCP(clientIP, vip, sport, 80, seq,
		substrate.FlagSyn|substrate.FlagPsh, b.reqBody).Own())
}

// close stops the HTTP servers and daemons and waits for them.
func (b *bed) close() {
	b.onResponse.Store(nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, srv := range b.srvs {
		srv.Shutdown(ctx)
	}
	b.serveWG.Wait()
	for _, d := range b.daemons {
		d.Close()
	}
	b.http.CloseIdleConnections()
}

// bedSetups is how many times a run builds the testbed. One build takes
// milliseconds, so the median of many is cheap and steady.
const bedSetups = 25

// setupBed builds the testbed bedSetups times, keeping the last, and
// returns it with the median set-up time: from building the daemons
// until the links are up and the first gateway is active.
func setupBed(spans *spanRecorder) (*bed, float64, error) {
	var secs []float64
	var b *bed
	for i := 0; i < bedSetups; i++ {
		if b != nil {
			b.close()
		}
		start := time.Now()
		var err error
		if b, err = newBed(spans); err != nil {
			return nil, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return b, median(secs), nil
}
