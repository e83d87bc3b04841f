// Command gpsctl is the CLI for a running gpsd: submit job specs, poll
// status, fetch results, cancel jobs, and read node health — against a
// single daemon or any node of a cluster (non-owners forward and proxy
// transparently, so it never matters which node the flag points at).
//
// Usage:
//
//	gpsctl -addr http://localhost:8377 submit spec.json   # or "-" for stdin
//	gpsctl submit -wait spec.json                         # block until terminal
//	gpsctl status <id>                                    # id: the spec hash submit printed
//	gpsctl result <id>
//	gpsctl cancel <id>
//	gpsctl health
//
// Exit status: 0 on success, 1 on API or transport errors, 2 on usage
// errors. submit -wait exits 1 if the job ends failed or canceled.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gps/internal/client"
	"gps/internal/retry"
	"gps/internal/service"
)

func main() {
	var (
		addr    = flag.String("addr", "http://127.0.0.1:8377", "gpsd base URL")
		timeout = flag.Duration("timeout", 0, "overall deadline for the command (0 = none)")
		retries = flag.Int("retries", 3, "attempts per request on transient failure (429/5xx/transport)")
	)
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	c := client.New(*addr, client.WithRetry(retry.Policy{
		MaxAttempts: *retries,
		BaseDelay:   200 * time.Millisecond,
		MaxDelay:    5 * time.Second,
		Jitter:      0.2,
	}))

	cmd, rest := args[0], args[1:]
	var err error
	switch cmd {
	case "submit":
		err = cmdSubmit(ctx, c, rest)
	case "status":
		err = cmdStatus(ctx, c, rest)
	case "result":
		err = cmdResult(ctx, c, rest)
	case "cancel":
		err = cmdCancel(ctx, c, rest)
	case "health":
		err = cmdHealth(ctx, c)
	case "cluster":
		err = cmdCluster(ctx, c, rest)
	case "top":
		err = cmdTop(ctx, c, rest)
	default:
		fmt.Fprintf(os.Stderr, "gpsctl: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpsctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: gpsctl [flags] <command> [args]

commands:
  submit [-wait] <spec.json|->   submit a job spec (file or stdin)
  status <job-id>                print one job's status
  result <job-id>                print a done job's report
  cancel <job-id>                cancel a queued or running job
  health                         print the node's health snapshot
  cluster [-json]                print ring ownership, peer liveness and
                                 suspicion, per-node load (queue, in-flight,
                                 cache hit rate), and replication/takeover
                                 counters
  top [-interval d] [-once] [-json]
                                 live per-node operator view: queue depth,
                                 workers, cache hit rate, steal/adoption
                                 counters, e2e latency p50/p99

flags:
`)
	flag.PrintDefaults()
}

func cmdSubmit(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	wait := fs.Bool("wait", false, "block until the job is terminal; print the report")
	poll := fs.Duration("poll", 200*time.Millisecond, "status poll interval with -wait")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if fs.NArg() != 1 {
		return fmt.Errorf("submit wants exactly one spec file (or \"-\" for stdin)")
	}

	var data []byte
	var err error
	if name := fs.Arg(0); name == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(name)
	}
	if err != nil {
		return err
	}
	var spec service.Spec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("parse spec: %w", err)
	}

	sub, err := c.Submit(ctx, spec)
	if err != nil {
		return err
	}
	if !*wait {
		return printJSON(sub)
	}
	fmt.Fprintf(os.Stderr, "gpsctl: job %s %s (%s); waiting\n", sub.ID, sub.State, sub.Outcome)
	st, err := c.WaitTerminal(ctx, sub.ID, *poll)
	if err != nil {
		return err
	}
	if st.State != service.StateDone {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	rep, err := c.Result(ctx, st.ID)
	if err != nil {
		return err
	}
	return rep.Encode(os.Stdout)
}

func cmdStatus(ctx context.Context, c *client.Client, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("status wants exactly one job ID")
	}
	st, err := c.Status(ctx, args[0])
	if err != nil {
		return err
	}
	return printJSON(st)
}

func cmdResult(ctx context.Context, c *client.Client, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("result wants exactly one job ID")
	}
	rep, err := c.Result(ctx, args[0])
	if err != nil {
		return err
	}
	if rep == nil {
		return fmt.Errorf("job %s is not done yet", args[0])
	}
	return rep.Encode(os.Stdout)
}

func cmdCancel(ctx context.Context, c *client.Client, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("cancel wants exactly one job ID")
	}
	st, err := c.Cancel(ctx, args[0])
	if err != nil {
		return err
	}
	return printJSON(st)
}

func cmdHealth(ctx context.Context, c *client.Client) error {
	h, err := c.Healthz(ctx)
	if err != nil {
		// A draining node still returns a health body worth printing.
		if h.Status != "" {
			printJSON(h) //nolint:errcheck // best-effort before the error
		}
		return err
	}
	return printJSON(h)
}

// cmdCluster renders the node's cluster view for operators: who it thinks
// is alive (and how suspicious it is of everyone else), per-node load from
// the federated metrics endpoint, where a sample of ring keys currently
// routes, and the self-healing counters — replication lag toward its
// successor and takeovers it has run for dead peers.
func cmdCluster(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit health + federated metrics as JSON")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	h, err := c.Healthz(ctx)
	if err != nil && h.Status == "" {
		return err // unreachable; a draining node still yields a body below
	}
	if h.Role != "cluster" {
		return fmt.Errorf("node %s is not in cluster mode", h.NodeID)
	}
	// The federated view is best-effort decoration: a node predating the
	// endpoint (404) still renders the health-derived table.
	cm, cmErr := c.ClusterMetrics(ctx)
	byNode := map[string]*service.Metrics{}
	if cmErr == nil {
		for i := range cm.Nodes {
			byNode[cm.Nodes[i].Node] = cm.Nodes[i].Metrics
		}
	}
	if *jsonOut {
		out := struct {
			Health  client.Health             `json:"health"`
			Metrics client.ClusterMetricsResp `json:"cluster_metrics"`
		}{Health: h, Metrics: cm}
		if perr := printJSON(out); perr != nil {
			return perr
		}
		return err
	}
	load := func(node string) string {
		m := byNode[node]
		if m == nil {
			return ""
		}
		return fmt.Sprintf("queue %d  in-flight %d  cache-hit %s",
			m.QueueDepth, m.JobsInFlight, hitRate(m))
	}
	fmt.Printf("node %s (%s)  %s\n", h.NodeID, h.Status, load(h.NodeID))
	fmt.Printf("peers: %d/%d alive\n", h.PeersAlive, h.PeersTotal)
	for _, p := range h.Peers {
		state := "down"
		switch {
		case p.Alive && p.Suspect:
			state = fmt.Sprintf("suspect (%d consecutive failures)", p.Fails)
		case p.Alive:
			state = "alive"
		}
		fmt.Printf("  %-12s %-28s %-8s %s\n", p.ID, p.URL, state, load(p.ID))
	}
	if cs := h.Cluster; cs != nil {
		fmt.Println("replication:")
		target := cs.ReplicationTarget
		if target == "" {
			target = "(no live successor)"
		}
		fmt.Printf("  successor %s  replicated %d  lag %d  errors %d\n",
			target, cs.ReplicatedRecords, cs.ReplicationLag, cs.ReplicationErrors)
		fmt.Printf("  ingested %d  replica_jobs_held %d\n", cs.ReplicatedIngested, cs.ReplicaJobsHeld)
		fmt.Printf("takeovers: %d sweeps, %d jobs promoted\n", cs.Takeovers, cs.TakeoverJobs)
		fmt.Printf("routing: forwards %d (errors %d)  proxied_reads %d  peer_fetches %d\n",
			cs.Forwards, cs.ForwardErrors, cs.ProxiedReads, cs.PeerFetches)
		fmt.Printf("steals: thief %d  victim %d  errors %d\n",
			cs.StealsThief, cs.StealsVictim, cs.StealErrors)
	}
	if len(h.Ring) > 0 {
		fmt.Println("ring sample:")
		for _, ro := range h.Ring {
			fmt.Printf("  %-16s -> %s\n", ro.Key, ro.Owner)
		}
	}
	return err // non-nil when draining: body printed, exit code still 1
}

// hitRate renders a node's result-cache hit rate ("-" before any lookup).
func hitRate(m *service.Metrics) string {
	total := m.ResultCacheHits + m.ResultCacheMisses
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(m.ResultCacheHits)/float64(total))
}

// cmdTop is the polling operator view: one row per cluster node with queue
// depth, worker occupancy, cache hit rate, steal/adoption counters, and
// end-to-end latency percentiles, refreshed until interrupted.
func cmdTop(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	interval := fs.Duration("interval", 2*time.Second, "refresh interval")
	once := fs.Bool("once", false, "print one snapshot and exit")
	jsonOut := fs.Bool("json", false, "emit the raw federated metrics as JSON")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	for {
		cm, err := c.ClusterMetrics(ctx)
		if err != nil {
			return err
		}
		switch {
		case *jsonOut:
			if perr := printJSON(cm); perr != nil {
				return perr
			}
		default:
			if !*once {
				fmt.Print("\033[H\033[2J") // home + clear, like top(1)
			}
			renderTop(cm)
		}
		if *once {
			return nil
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(*interval):
		}
	}
}

func renderTop(cm client.ClusterMetricsResp) {
	fmt.Printf("%-12s %-6s %6s %10s %8s %5s %6s %7s %8s %10s %10s\n",
		"NODE", "STATE", "QUEUE", "IN-FLIGHT", "WORKERS", "BUSY", "HIT%", "STOLEN", "ADOPTED", "E2E-P50", "E2E-P99")
	for _, n := range cm.Nodes {
		if n.Metrics == nil {
			state := "down"
			if n.Error != "" {
				state = "error"
			}
			fmt.Printf("%-12s %-6s %s\n", n.Node, state, n.Error)
			continue
		}
		m := n.Metrics
		p50, p99 := "-", "-"
		if m.JobE2E != nil {
			p50 = fmt.Sprintf("%.3fs", m.JobE2E.P50)
			p99 = fmt.Sprintf("%.3fs", m.JobE2E.P99)
		}
		fmt.Printf("%-12s %-6s %6d %10d %8d %5d %6s %7d %8d %10s %10s\n",
			n.Node, "up", m.QueueDepth, m.JobsInFlight, m.Workers, m.BusyWorkers,
			hitRate(m), m.JobsStolen, m.JobsAdopted, p50, p99)
	}
}

func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
