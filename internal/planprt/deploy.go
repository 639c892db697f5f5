// Protocol deployment management — §5's "protocol management
// functionalities, such as ASP deployment". A Deployment installs one
// loaded program across a node set atomically (all nodes or none) and
// can be withdrawn as a unit, which is how the audio experiment pushes
// the router protocol onto every router of the multicast tree.
package planprt

import (
	"fmt"
	"io"

	"planp.dev/planp/internal/substrate"
)

// Uninstall releases this runtime's install slot and, if it still
// processes the node's packets, restores standard packet processing.
// A runtime another Install has already replaced on the node only gives
// its slot back, which is what lets a version swap install the new
// runtime first and release the old one after. Idempotent.
func (rt *Runtime) Uninstall() {
	if !rt.installed {
		return
	}
	rt.installed = false
	rt.prog.installs--
	if rt.node.CurrentProcessor() == substrate.Processor(rt) {
		rt.node.SetProcessor(nil)
	}
}

// Deployment tracks one program installed across a set of nodes.
type Deployment struct {
	prog     *Program
	runtimes []*Runtime
}

// Deploy installs p on every node, rolling back already-installed nodes
// if any installation fails (a node already running another protocol,
// or a single-node program offered several nodes).
func Deploy(p *Program, out io.Writer, nodes ...substrate.Node) (*Deployment, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("planprt: deployment needs at least one node")
	}
	d := &Deployment{prog: p}
	for _, node := range nodes {
		if node.CurrentProcessor() != nil {
			d.Undeploy()
			return nil, fmt.Errorf("planprt: node %s already runs a protocol", node.Hostname())
		}
		rt, err := Install(node, p, out)
		if err != nil {
			d.Undeploy()
			return nil, fmt.Errorf("planprt: deploying to %s: %w", node.Hostname(), err)
		}
		d.runtimes = append(d.runtimes, rt)
	}
	return d, nil
}

// Undeploy withdraws the protocol from every node it reached.
func (d *Deployment) Undeploy() {
	for _, rt := range d.runtimes {
		rt.Uninstall()
	}
	d.runtimes = nil
}

// Runtimes returns the per-node runtimes in deployment order.
func (d *Deployment) Runtimes() []*Runtime { return d.runtimes }

// TotalStats aggregates runtime statistics across the deployment.
func (d *Deployment) TotalStats() Stats {
	var total Stats
	for _, rt := range d.runtimes {
		s := rt.Stats()
		total.Processed += s.Processed
		total.Unmatched += s.Unmatched
		total.Errors += s.Errors
		total.SentRemote += s.SentRemote
		total.SentLocal += s.SentLocal
		total.SentFlood += s.SentFlood
		total.Delivered += s.Delivered
		total.InvokeTime += s.InvokeTime
	}
	return total
}
