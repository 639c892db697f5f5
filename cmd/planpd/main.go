// planpd is the ASP download daemon. It runs the daemons of a testbed
// topology (internal/testbed) on the real-time backend; each serves
// every local node's protocol-management API at /node/<name>/, the
// fleet rollout and adaptation controllers, the remote chaos API and a
// traffic generator.
//
// With no subcommand it runs the embedded demo topology: client,
// gateway, server0 and server1 on one daemon. Download the
// load-balancing ASP onto the running gateway and watch it spread real
// requests:
//
//	planpd -listen 127.0.0.1:8377 &
//	curl -X POST --data-binary @asp/http_gateway.planp \
//	    'http://127.0.0.1:8377/node/gateway/asp?verify=single'
//	curl -X POST \
//	    'http://127.0.0.1:8377/inject?from=client&to=10.0.0.100&proto=tcp&n=200'
//	curl 'http://127.0.0.1:8377/node/server0/stats'   # testbed.server{0,1}.http_served
//
// Roll a protocol out to several nodes as a unit — two-phase, with
// rollback on partial failure — over HTTP or from the command line:
//
//	curl -X POST --data-binary @asp/audio_router.planp \
//	    'http://127.0.0.1:8377/deploy?version=v1&nodes=gateway,server0'
//	planpd deploy -nodes gw=http://127.0.0.1:8377/node/gateway \
//	    -src asp/audio_router.planp -version v1
//
// `planpd up -topo f.json [-daemon name]` runs any other topology;
// `planpd adapt` and `planpd chaos` drive a running daemon. SIGINT or
// SIGTERM shuts down cleanly: HTTP drains, adaptation runs finish or
// roll back, then the node goroutines are joined.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"planp.dev/planp/internal/adapt"
	"planp.dev/planp/internal/fleet"
	"planp.dev/planp/internal/lang/diag"
	"planp.dev/planp/internal/testbed"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "deploy":
			os.Exit(runDeploy(os.Args[2:]))
		case "adapt":
			os.Exit(runAdapt(os.Args[2:]))
		case "up":
			os.Exit(runUp(os.Args[2:]))
		case "chaos":
			os.Exit(runChaos(os.Args[2:]))
		}
	}
	os.Exit(runDemo(os.Args[1:]))
}

// runDemo is `planpd` with no subcommand: `up` on the embedded demo
// topology (testbed.Demo), one daemon serving the §3.2 HTTP cluster.
func runDemo(args []string) int {
	topo := testbed.Demo()
	fs := flag.NewFlagSet("planpd", flag.ExitOnError)
	fs.StringVar(&topo.Daemons[0].Control, "listen", topo.Daemons[0].Control, "control API listen address")
	history := fs.String("history", "", "deployment history file prefix; the daemon appends .<name>")
	fs.Parse(args)
	return up(topo, "", *history, 0)
}

func runDeploy(args []string) int {
	fs := flag.NewFlagSet("planpd deploy", flag.ExitOnError)
	nodesFlag := fs.String("nodes", "", "comma-separated targets: name=url, or bare node names resolved against -daemon")
	daemon := fs.String("daemon", "http://127.0.0.1:8377", "planpd daemon base URL for bare node names")
	srcPath := fs.String("src", "", "PLAN-P protocol source file")
	version := fs.String("version", "", "version label (auto-assigned when empty)")
	engine := fs.String("engine", "", "execution engine: jit or interp")
	verify := fs.String("verify", "", "verification policy: network, single, privileged")
	timeout := fs.Duration("timeout", 30*time.Second, "overall rollout deadline")
	allowIncompat := fs.Bool("allow-incompatible", false,
		"proceed past the fleet compatibility gate; its findings are recorded on the deployment instead of rejecting it")
	fs.Parse(args)

	if *srcPath == "" || *nodesFlag == "" {
		fmt.Fprintln(os.Stderr, "planpd deploy: -src and -nodes are required")
		return 2
	}
	src, err := os.ReadFile(*srcPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	targets, err := fleet.ParseTargets(*nodesFlag, nodeMount(*daemon))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	ctl := fleet.New(fleet.Config{Logf: log.Printf})
	d, deployErr := ctl.Deploy(ctx, fleet.Spec{
		Version: *version, Source: string(src), Engine: *engine, Verify: *verify,
		SourceName: *srcPath, AllowIncompatible: *allowIncompat,
	}, targets)

	if d != nil {
		out, _ := json.MarshalIndent(d.View(), "", "  ")
		fmt.Println(string(out))
	}
	if deployErr != nil {
		fmt.Fprintln(os.Stderr, deployErr)
		// Rejections that carry source spans (the compatibility gate, a
		// node's stage 422) are re-rendered with the offending source
		// lines excerpted and underlined.
		if ds := diag.Of(deployErr); len(ds) > 0 {
			fmt.Fprint(os.Stderr, diag.Render(string(src), *srcPath, ds))
		}
		return 1
	}
	return 0
}

// guardList collects repeatable -guard flags.
type guardList []string

func (g *guardList) String() string     { return strings.Join(*g, ",") }
func (g *guardList) Set(s string) error { *g = append(*g, s); return nil }

// runAdapt drives one self-promoting canary from the command line: the
// candidate is staged on the -canary cohort, guard metrics are watched
// for -windows windows against the -baseline cohort, then the rollout
// promotes fleet-wide or rolls back on its own. Exit status: 0
// promoted, 1 rolled back or failed, 2 usage.
//
//	planpd adapt -canary gateway -baseline server0,server1 \
//	    -src asp/http_gateway_leastconn.planp -verify single \
//	    -guard 'node.{node}.drops<=5' -guard 'asp.{node}.faults<=1x+2' \
//	    -windows 3 -interval 2s
func runAdapt(args []string) int {
	fs := flag.NewFlagSet("planpd adapt", flag.ExitOnError)
	canaryFlag := fs.String("canary", "", "comma-separated canary cohort: name=url, or bare node names resolved against -daemon")
	baselineFlag := fs.String("baseline", "", "comma-separated baseline cohort (receives the promote rollout)")
	daemon := fs.String("daemon", "http://127.0.0.1:8377", "planpd daemon base URL for bare node names")
	srcPath := fs.String("src", "", "PLAN-P protocol source file")
	version := fs.String("version", "", "version label (auto-assigned when empty)")
	engine := fs.String("engine", "", "execution engine: jit or interp")
	verify := fs.String("verify", "", "verification policy: network, single, privileged")
	windows := fs.Int("windows", 3, "observation windows before promotion")
	interval := fs.Duration("interval", 2*time.Second, "observation window length")
	timeout := fs.Duration("timeout", 2*time.Minute, "overall run deadline")
	var guards guardList
	fs.Var(&guards, "guard", "guard metric, metric<=N | metric<=Rx+S (repeatable; {node} expands per node)")
	fs.Parse(args)

	if *srcPath == "" || *canaryFlag == "" {
		fmt.Fprintln(os.Stderr, "planpd adapt: -src and -canary are required")
		return 2
	}
	src, err := os.ReadFile(*srcPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	canary, err := fleet.ParseTargets(*canaryFlag, nodeMount(*daemon))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var baseline []fleet.Target
	if *baselineFlag != "" {
		if baseline, err = fleet.ParseTargets(*baselineFlag, nodeMount(*daemon)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	parsed, err := adapt.ParseGuards(guards)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	ctl := adapt.New(adapt.Config{
		Fleet: fleet.New(fleet.Config{Logf: log.Printf}),
		Logf:  log.Printf,
	})
	out, runErr := ctl.Canary(ctx, adapt.CanaryPlan{
		Spec: fleet.Spec{
			Version: *version, Source: string(src),
			Engine: *engine, Verify: *verify, SourceName: *srcPath,
		},
		Canary: canary, Baseline: baseline,
		Guards: parsed, Windows: *windows, Interval: *interval,
	})
	if out != nil {
		enc, _ := json.MarshalIndent(map[string]any{
			"verdict": out.Verdict, "reason": out.Reason,
		}, "", "  ")
		fmt.Println(string(enc))
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, runErr)
		return 1
	}
	if out.Verdict != adapt.VerdictPromoted {
		return 1
	}
	return 0
}

// runUp boots a distributed testbed from a topology file. By default
// every daemon in the file runs in this one process (the
// single-machine stand-in for the multi-host testbed: separate rtnet
// networks, real UDP between them); -daemon selects one daemon for the
// one-process-per-host deployment, where each host runs
//
//	planpd up -topo testbed.json -daemon <its-name>
//
// and the cross-daemon links handshake over the wire.
func runUp(args []string) int {
	fs := flag.NewFlagSet("planpd up", flag.ExitOnError)
	topoPath := fs.String("topo", "", "testbed topology file (JSON)")
	daemonName := fs.String("daemon", "", "run only the named daemon (default: all, in one process)")
	history := fs.String("history", "", "deployment history file prefix; each daemon appends .<name>")
	probe := fs.Duration("probe", 0, "cross-daemon link liveness probe interval (default 500ms)")
	fs.Parse(args)

	if *topoPath == "" {
		fmt.Fprintln(os.Stderr, "planpd up: -topo is required")
		return 2
	}
	topo, err := testbed.LoadTopology(*topoPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return up(topo, *daemonName, *history, *probe)
}

// up runs the named daemon of topo (all of them when daemonName is
// empty) in this process: build, start, and serve each control API;
// on SIGINT/SIGTERM drain HTTP, drain adaptation runs, and close the
// substrate (remote links BYE their peers on the way out).
func up(topo *testbed.Topology, daemonName, history string, probe time.Duration) int {
	var names []string
	if daemonName != "" {
		names = []string{daemonName}
	} else {
		for _, d := range topo.Daemons {
			names = append(names, d.Name)
		}
	}

	var daemons []*testbed.Daemon
	var servers []*http.Server
	errc := make(chan error, len(names))
	for _, name := range names {
		opts := testbed.Options{Out: os.Stdout, Logf: log.Printf, ProbeInterval: probe}
		if history != "" {
			opts.HistoryPath = history + "." + name
		}
		d, err := testbed.NewDaemon(topo, name, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			for _, prev := range daemons {
				prev.Close()
			}
			return 1
		}
		daemons = append(daemons, d)
		d.Start()
		srv := &http.Server{Addr: d.Spec.Control, Handler: d.Handler()}
		servers = append(servers, srv)
		go func() { errc <- srv.ListenAndServe() }()
		log.Printf("planpd up: daemon %s on http://%s (%d nodes)",
			d.Spec.Name, d.Spec.Control, len(topo.Nodes))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ret := 0
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, err)
		ret = 1
	case <-ctx.Done():
	}

	log.Printf("planpd up: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, srv := range servers {
		srv.Shutdown(shutCtx)
	}
	for _, d := range daemons {
		if !d.Drain(shutCtx) {
			log.Printf("planpd up: daemon %s: adaptation runs cut short", d.Spec.Name)
		}
		d.Close()
	}
	return ret
}

// runChaos drives a daemon's remote chaos control plane from the
// command line:
//
//	planpd chaos stage  -daemon http://host:port -f timeline.json
//	planpd chaos start  -daemon http://host:port [-f timeline.json | -name NAME]
//	planpd chaos stop   -daemon http://host:port [-name NAME] [-clear]
//	planpd chaos status -daemon http://host:port
func runChaos(args []string) int {
	if len(args) < 1 {
		fmt.Fprintln(os.Stderr, "planpd chaos: need a verb: stage, start, stop, status")
		return 2
	}
	verb := args[0]
	fs := flag.NewFlagSet("planpd chaos "+verb, flag.ExitOnError)
	daemon := fs.String("daemon", "http://127.0.0.1:8377", "planpd daemon base URL")
	file := fs.String("f", "", "timeline file (JSON)")
	name := fs.String("name", "", "timeline name (staged timelines, runs)")
	clear := fs.Bool("clear", false, "with stop: also heal every injected fault")
	timeout := fs.Duration("timeout", 10*time.Second, "request deadline")
	fs.Parse(args[1:])

	base := strings.TrimRight(*daemon, "/")
	var method, url string
	var body io.Reader
	switch verb {
	case "stage", "start":
		method, url = http.MethodPost, base+"/chaos/"+verb
		if *file != "" {
			b, err := os.ReadFile(*file)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			body = strings.NewReader(string(b))
		} else if verb == "start" && *name != "" {
			url += "?name=" + *name
		} else {
			fmt.Fprintf(os.Stderr, "planpd chaos %s: -f is required%s\n", verb,
				map[bool]string{true: " (or -name for a staged timeline)", false: ""}[verb == "start"])
			return 2
		}
	case "stop":
		method, url = http.MethodPost, base+"/chaos/stop"
		sep := "?"
		if *name != "" {
			url += sep + "name=" + *name
			sep = "&"
		}
		if *clear {
			url += sep + "clear=1"
		}
	case "status":
		method, url = http.MethodGet, base+"/chaos/status"
	default:
		fmt.Fprintf(os.Stderr, "planpd chaos: unknown verb %q (stage, start, stop, status)\n", verb)
		return 2
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	// Responses are already JSON; re-indent for the terminal.
	var pretty json.RawMessage
	if json.Unmarshal(out, &pretty) == nil {
		if enc, err := json.MarshalIndent(pretty, "", "  "); err == nil {
			out = append(enc, '\n')
		}
	}
	os.Stdout.Write(out)
	if resp.StatusCode >= 300 {
		fmt.Fprintf(os.Stderr, "planpd chaos %s: HTTP %d\n", verb, resp.StatusCode)
		return 1
	}
	return 0
}

// nodeMount resolves bare node names to the daemon's per-node mount
// (<daemon>/node/<name>).
func nodeMount(daemon string) func(string) (string, bool) {
	return func(name string) (string, bool) {
		return strings.TrimRight(daemon, "/") + "/node/" + name, true
	}
}
