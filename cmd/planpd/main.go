// planpd is the ASP download daemon: it boots the live HTTP cluster
// (client — gateway — two servers) on the real-time backend and serves
// the protocol-management API for every node, plus the fleet rollout
// control plane. Download the load-balancing ASP onto the running
// gateway and watch it spread real requests:
//
//	planpd -listen 127.0.0.1:8377 &
//	curl -X POST --data-binary @asp/http_gateway.planp \
//	    'http://127.0.0.1:8377/asp?verify=single'
//	curl -X POST 'http://127.0.0.1:8377/demo/requests?n=200'
//	curl 'http://127.0.0.1:8377/stats'
//
// Each cluster node's API is also mounted at /node/<name>/ (gateway,
// client, server0, server1), which is what the fleet controller
// targets. Roll a protocol out to several nodes as a unit — two-phase,
// with rollback on partial failure:
//
//	curl -X POST --data-binary @asp/audio_router.planp \
//	    'http://127.0.0.1:8377/deploy?version=v1&nodes=gateway,server0'
//	curl 'http://127.0.0.1:8377/deployments'
//
// The same rollout is available from the command line, against this or
// any other planpd daemon:
//
//	planpd deploy -nodes gw=http://127.0.0.1:8377/node/gateway \
//	    -src asp/audio_router.planp -version v1
//
// The daemon shuts down cleanly on SIGINT/SIGTERM: the HTTP listener
// drains, then the cluster's node goroutines are quiesced and joined.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"planp.dev/planp/internal/adapt"
	"planp.dev/planp/internal/chaos"
	"planp.dev/planp/internal/fleet"
	"planp.dev/planp/internal/lang/diag"
	"planp.dev/planp/internal/planpd"
	"planp.dev/planp/internal/substrate"
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
	os.Exit(runServe(os.Args[1:]))
}

func runServe(args []string) int {
	fs := flag.NewFlagSet("planpd", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:8377", "control API listen address")
	udp := fs.Bool("udp", false, "use loopback-UDP socket links instead of in-process channels")
	history := fs.String("history", "", "deployment history file (JSON lines); rollout records survive daemon restarts")
	fs.Parse(args)

	cluster, err := planpd.NewCluster(*udp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer cluster.Close()
	cluster.Start()

	mux := http.NewServeMux()

	// Back-compat: the bare API drives the gateway node.
	mux.Handle("/", planpd.NewServer(cluster.Gateway, os.Stdout).Handler())

	// Per-node control APIs — the fleet controller's targets.
	nodes := []substrate.Node{cluster.Gateway, cluster.Client, cluster.Servers[0], cluster.Servers[1]}
	for _, node := range nodes {
		prefix := "/node/" + node.Hostname()
		mux.Handle(prefix+"/", http.StripPrefix(prefix, planpd.NewServer(node, os.Stdout).Handler()))
	}

	// The embedded fleet controller. Rollouts target the daemon's own
	// per-node mounts unless the request names full URLs.
	ctl := fleet.New(fleet.Config{Logf: log.Printf, HistoryPath: *history})
	mux.Handle("/deployments", ctl.Handler())

	// The adaptation controller: POST /adapt starts a self-promoting
	// canary against the same fleet controller (so canary, promote, and
	// rollback records all land in one history); GET /adapt watches it.
	adaptCtl := adapt.New(adapt.Config{Fleet: ctl, Logf: log.Printf})
	mux.Handle("/adapt", adaptCtl.Handler())

	// The remote chaos control plane over the demo cluster: stage and
	// play fault timelines (partitions, per-direction faults, clock
	// skew) against the live links from another host.
	chaosEng := chaos.New(cluster.Net, 1)
	cluster.WireChaos(chaosEng)
	mux.Handle("/chaos/", planpd.NewChaosServer(chaosEng).Handler())
	mux.HandleFunc("/deploy", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		targets, err := parseTargets(r.URL.Query().Get("nodes"), "http://"+*listen)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		src, err := readBody(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		spec := fleet.Spec{
			Version:           r.URL.Query().Get("version"),
			Source:            src,
			Engine:            r.URL.Query().Get("engine"),
			Verify:            r.URL.Query().Get("verify"),
			SourceName:        r.URL.Query().Get("src_name"),
			AllowIncompatible: r.URL.Query().Get("allow_incompatible") == "true",
		}
		d, deployErr := ctl.Deploy(r.Context(), spec, targets)
		status := http.StatusOK
		resp := map[string]any{}
		if deployErr != nil {
			status = http.StatusConflict
			resp["error"] = deployErr.Error()
			// Compatibility-gate and stage rejections carry source spans;
			// surface them structurally, like planpd's own 422 bodies.
			if ds := diag.Of(deployErr); len(ds) > 0 {
				status = http.StatusUnprocessableEntity
				resp["diagnostics"] = ds
			}
		}
		if d != nil {
			resp["deployment"] = d.View()
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(resp)
	})

	mux.HandleFunc("/demo/requests", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		n, err := strconv.Atoi(r.URL.Query().Get("n"))
		if err != nil || n <= 0 || n > 1<<16 {
			http.Error(w, "n must be in [1, 65536]", http.StatusBadRequest)
			return
		}
		for i := 0; i < n; i++ {
			cluster.SendRequest(uint16(10000 + i))
		}
		// Real-time backend: the burst is still in flight when the
		// sends return. Settle before reading the counters so the
		// response reflects this burst, not the previous one.
		settled := cluster.Net.Quiesce(10 * time.Second)
		s0, s1 := cluster.Served()
		total, fromVirtual := cluster.Responses()
		json.NewEncoder(w).Encode(map[string]any{
			"sent": n, "settled": settled, "server0": s0, "server1": s1,
			"responses": total, "from_virtual": fromVirtual,
		})
	})

	srv := &http.Server{Addr: *listen, Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("planpd: control API on http://%s (links: %s)", *listen, linkKind(*udp))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, err)
		return 1
	case <-ctx.Done():
	}

	// Graceful shutdown: drain in-flight control requests, then let the
	// cluster's traffic settle before the deferred Close joins the node
	// goroutines.
	log.Printf("planpd: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Printf("planpd: HTTP shutdown: %v", err)
	}
	// In-flight canary runs finish (or are cut short at the deadline and
	// roll back) before the substrate goes away beneath them.
	if !adaptCtl.Drain(shutCtx) {
		log.Printf("planpd: adaptation runs cut short")
	}
	if !cluster.Net.Quiesce(5 * time.Second) {
		log.Printf("planpd: cluster did not quiesce; closing anyway")
	}
	log.Printf("planpd: bye")
	return 0
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
	targets, err := parseTargets(*nodesFlag, *daemon)
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
	canary, err := parseTargets(*canaryFlag, *daemon)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var baseline []fleet.Target
	if *baselineFlag != "" {
		if baseline, err = parseTargets(*baselineFlag, *daemon); err != nil {
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
	var names []string
	if *daemonName != "" {
		names = []string{*daemonName}
	} else {
		for _, d := range topo.Daemons {
			names = append(names, d.Name)
		}
	}

	var daemons []*testbed.Daemon
	var servers []*http.Server
	errc := make(chan error, len(names))
	for _, name := range names {
		opts := testbed.Options{Out: os.Stdout, Logf: log.Printf, ProbeInterval: *probe}
		if *history != "" {
			opts.HistoryPath = *history + "." + name
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

	// Graceful shutdown, same sequence per daemon as the single-cluster
	// server: drain HTTP, drain adaptation runs, close the substrate
	// (remote links BYE their peers on the way out).
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

// parseTargets decodes a comma-separated target list. Each entry is
// either name=url or a bare node name, which resolves to the daemon's
// per-node mount (<daemon>/node/<name>).
func parseTargets(spec, daemon string) ([]fleet.Target, error) {
	if spec == "" {
		return nil, errors.New("no target nodes given")
	}
	var targets []fleet.Target
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		if name, url, ok := strings.Cut(entry, "="); ok {
			targets = append(targets, fleet.Target{Name: name, URL: url})
			continue
		}
		if strings.Contains(entry, "://") {
			return nil, fmt.Errorf("target %q: use name=url for explicit URLs", entry)
		}
		targets = append(targets, fleet.Target{
			Name: entry,
			URL:  strings.TrimRight(daemon, "/") + "/node/" + entry,
		})
	}
	return targets, nil
}

func readBody(r *http.Request) (string, error) {
	const maxSrc = 1 << 20
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSrc+1))
	if err != nil {
		return "", err
	}
	if len(body) > maxSrc {
		return "", errors.New("protocol source too large")
	}
	return string(body), nil
}

func linkKind(udp bool) string {
	if udp {
		return "loopback-udp"
	}
	return "in-process"
}
