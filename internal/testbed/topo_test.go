package testbed

import (
	"strings"
	"testing"
)

// validTopo is the reference 3-daemon topology used across the tests:
// a gateway on one daemon and a server on each of two others, with the
// two cross-daemon links on loopback UDP.
const validTopo = `{
  "name": "t",
  "daemons": [
    {"name": "d1", "control": "127.0.0.1:18001"},
    {"name": "d2", "control": "127.0.0.1:18002"},
    {"name": "d3", "control": "127.0.0.1:18003"}
  ],
  "nodes": [
    {"name": "gw", "addr": "10.0.0.1", "daemon": "d1", "forwarding": true},
    {"name": "s0", "addr": "10.0.0.2", "daemon": "d2"},
    {"name": "s1", "addr": "10.0.0.3", "daemon": "d3"}
  ],
  "links": [
    {"a": "gw", "b": "s0", "a_udp": "127.0.0.1:18101", "b_udp": "127.0.0.1:18102"},
    {"a": "gw", "b": "s1", "a_udp": "127.0.0.1:18103", "b_udp": "127.0.0.1:18104"}
  ]
}`

func TestParseTopology(t *testing.T) {
	topo, err := ParseTopology([]byte(validTopo))
	if err != nil {
		t.Fatal(err)
	}
	if topo.Name != "t" || len(topo.Daemons) != 3 || len(topo.Nodes) != 3 || len(topo.Links) != 2 {
		t.Fatalf("unexpected shape: %+v", topo)
	}
	if name := topo.Links[0].Name(); name != "gw-s0" {
		t.Fatalf("link name = %q, want gw-s0", name)
	}
	if bw := topo.Links[0].Bandwidth(); bw != DefaultBandwidth {
		t.Fatalf("defaulted bandwidth = %d", bw)
	}
	if url, ok := topo.NodeURL("s1"); !ok || url != "http://127.0.0.1:18003/node/s1" {
		t.Fatalf("NodeURL(s1) = %q, %v", url, ok)
	}
}

// TestTopologyValidation: every malformed topology is a structured
// parse-time error naming the offending element.
func TestTopologyValidation(t *testing.T) {
	mutate := func(from, to string) string {
		s := strings.Replace(validTopo, from, to, 1)
		if s == validTopo {
			t.Fatalf("mutation %q not applied", from)
		}
		return s
	}
	cases := []struct {
		name, topo, want string
	}{
		{"unknown-field", mutate(`"name": "t"`, `"name": "t", "nmae": "x"`), "unknown field"},
		{"dup-daemon", mutate(`"name": "d2"`, `"name": "d1"`), "duplicate daemon"},
		{"unknown-daemon", mutate(`"daemon": "d2"`, `"daemon": "dX"`), "unknown daemon"},
		{"dup-node", mutate(`"name": "s0"`, `"name": "gw"`), "duplicate node"},
		{"dup-addr", mutate(`"addr": "10.0.0.2"`, `"addr": "10.0.0.1"`), "share address"},
		{"bad-addr", mutate(`"addr": "10.0.0.2"`, `"addr": "banana"`), "s0"},
		{"unknown-link-node", mutate(`"a": "gw", "b": "s0"`, `"a": "gw", "b": "sX"`), "unknown node"},
		{"self-link", mutate(`"a": "gw", "b": "s0"`, `"a": "gw", "b": "gw"`), "itself"},
		{"missing-udp", mutate(`"a_udp": "127.0.0.1:18101", `, ``), "needs a_udp and b_udp"},
		{"no-daemons", `{"name":"t","daemons":[],"nodes":[],"links":[]}`, "no daemons"},
		{"neg-bandwidth", mutate(`"a": "gw", "b": "s0", `, `"a": "gw", "b": "s0", "bandwidth_bps": -1, `), "negative bandwidth"},
		{"dup-control", mutate(`"127.0.0.1:18002"`, `"127.0.0.1:18001"`), "share control address"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseTopology([]byte(tc.topo))
			if err == nil {
				t.Fatalf("accepted invalid topology")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestNextHops: shortest-path derivation over a line topology routes
// the far ends through the middle.
func TestNextHops(t *testing.T) {
	topo, err := ParseTopology([]byte(validTopo))
	if err != nil {
		t.Fatal(err)
	}
	// Star around gw: the servers reach each other via gw.
	hops := topo.NextHops("s0")
	if hops["gw"] != "gw" || hops["s1"] != "gw" {
		t.Fatalf("s0 next hops = %v", hops)
	}
	hops = topo.NextHops("gw")
	if hops["s0"] != "s0" || hops["s1"] != "s1" {
		t.Fatalf("gw next hops = %v", hops)
	}
}

// FuzzParseTopology: no input panics the parser, and every accepted
// topology derives next hops from every node that are direct
// neighbors.
func FuzzParseTopology(f *testing.F) {
	f.Add([]byte(validTopo))
	f.Add(demoJSON)
	f.Fuzz(func(t *testing.T, b []byte) {
		topo, err := ParseTopology(b)
		if err != nil {
			return
		}
		for _, n := range topo.Nodes {
			for dst, via := range topo.NextHops(n.Name) {
				if !topo.adjacent(n.Name, via) {
					t.Fatalf("next hop %s->%s via non-neighbor %s", n.Name, dst, via)
				}
			}
		}
	})
}
