// Command fluentps-admin operates on a live FluentPS TCP cluster through
// its versioned ClusterView API: inspect the installed view or per-shard
// synchronization state, switch a shard's synchronization model at
// runtime, and drive elastic membership — join a new server, drain one
// out, or promote a backup after a primary dies — all without stopping
// training.
//
// Usage:
//
//	fluentps-admin [flags] <command>
//
// Commands:
//
//	view      print the cluster view installed on -rank (default 0)
//	stats     per-shard synchronization state (in-band, or -debugAddrs scrape)
//	set-cond  switch server -rank to the -sync model at runtime
//	join      add the last -servers address as a new server; keys move
//	          to it move-minimally while training continues
//	drain     drain server -rank: its keys stream to the remaining
//	          servers, then the server is shut down
//	promote   fail dead server -rank over to its replication backup
//
// Exit codes:
//
//	0  the operation completed
//	1  the operation failed (network error, server rejection, no backup)
//	2  usage error (unknown command, bad flags)
//
// Examples:
//
//	fluentps-admin -servers h1:7071,h2:7071 -workerAddrs h3:7081 view
//	fluentps-admin -servers h1:7071,h2:7071,h4:7071 -workerAddrs h3:7081 join
//	fluentps-admin ... -rank 1 drain
//	fluentps-admin ... -rank 0 promote
//	fluentps-admin ... -rank 1 -sync pssp -staleness 3 -prob 0.5 set-cond
//	fluentps-admin -debugAddrs h1:7090,h2:7090,h3:7091 stats
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"github.com/fluentps/fluentps/internal/clustercfg"
	"github.com/fluentps/fluentps/internal/clusterview"
	"github.com/fluentps/fluentps/internal/core"
	"github.com/fluentps/fluentps/internal/keyrange"
	"github.com/fluentps/fluentps/internal/syncmodel"
	"github.com/fluentps/fluentps/internal/telemetry"
	"github.com/fluentps/fluentps/internal/transport"
)

// fail reports an operation failure and exits 1.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fluentps-admin: "+format+"\n", args...)
	os.Exit(1)
}

// usage reports a usage error and exits 2.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fluentps-admin: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	var flags clustercfg.Flags
	rank := flag.Int("rank", 0, "target server rank (view, stats source, set-cond, drain, promote)")
	from := flag.Int("from", -1, "server rank to fetch the current view from (join/drain/promote); -1 picks the lowest reachable active rank ≠ -rank")
	listen := flag.String("listen", "127.0.0.1:0", "admin listen address (servers dial back here)")
	debugAddrs := flag.String("debugAddrs", "", "comma-separated telemetry endpoints to scrape (stats); bypasses the in-band query")
	flags.Register(flag.CommandLine)
	flag.Parse()
	cmd := flag.Arg(0)
	if cmd == "" {
		usage("usage: fluentps-admin [flags] view | stats | set-cond | join | drain | promote")
	}

	if cmd == "stats" && *debugAddrs != "" {
		scrapeStats(strings.Split(*debugAddrs, ","))
		return
	}

	cluster, err := flags.Cluster()
	if err != nil {
		usage("%v", err)
	}
	// The admin joins as an extra worker id well past the real workers.
	adminID := transport.Worker(cluster.Workers() + 100)
	ep, err := transport.ListenTCP(adminID, *listen, cluster.Book())
	if err != nil {
		fail("%v", err)
	}
	defer ep.Close()

	ctx := context.Background()
	if flags.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, flags.Timeout)
		defer cancel()
	}

	switch cmd {
	case "view":
		v, err := core.QueryView(ctx, ep, *rank)
		if err != nil {
			fail("%v", err)
		}
		printView(v)

	case "stats":
		for m := range cluster.ServerAddrs {
			st, err := core.QueryStats(ctx, ep, m)
			if err != nil {
				fail("server %d: %v", m, err)
			}
			fmt.Printf("server %d: keys=%d model=%s switches=%d V_train=%d progress=[%d,%d] count@round=%d buffered=%d pulls=%d pushes=%d DPRs=%d dropped=%d dedup=%d snapshot_epoch=%d ro_pulls=%d\n",
				m, st.Keys, st.Model(), st.Switches, st.VTrain, st.MinProgress, st.MaxProgress,
				st.CountAtRound, st.Buffered, st.Pulls, st.Pushes, st.DPRs, st.Dropped, st.DedupHits,
				st.SnapshotEpoch, st.ROPulls)
		}

	case "set-cond":
		sync, err := flags.SyncConfig(cluster.Workers())
		if err != nil {
			usage("%v", err)
		}
		spec, ok := syncmodel.SpecOf(sync.Model)
		if !ok {
			usage("model %s cannot travel over the wire", sync.Model)
		}
		if err := core.SetCondition(ctx, ep, *rank, spec); err != nil {
			fail("%v", err)
		}
		fmt.Printf("server %d now runs %s\n", *rank, sync.Model)

	case "join":
		// The joining server's address is the LAST entry of -servers; it
		// must already be running with -joining (empty, view-aware).
		if len(cluster.ServerAddrs) < 2 {
			usage("join needs the new server appended to -servers")
		}
		joinerAddr := cluster.ServerAddrs[len(cluster.ServerAddrs)-1]
		cur := fetchView(ctx, ep, &flags, cluster, *from, -1)
		layout := layoutForView(&flags, cluster, cur)
		if len(cur.Servers) >= len(cluster.ServerAddrs) {
			fail("view already has %d servers; nothing to join", len(cur.Servers))
		}
		next, newRank, err := cur.WithJoined(joinerAddr, layout)
		if err != nil {
			fail("%v", err)
		}
		fmt.Printf("joining %s as server %d: epoch %d→%d, moving %d of %d keys…\n",
			joinerAddr, newRank, cur.Epoch, next.Epoch,
			keyrange.Moved(cur.Assignment, next.Assignment), layout.NumKeys())
		if err := core.DistributeView(ctx, ep, next, nil); err != nil {
			fail("%v", err)
		}
		fmt.Printf("join complete: view epoch %d, server %d owns %d keys\n",
			next.Epoch, newRank, len(next.Assignment.KeysOf(newRank)))

	case "drain":
		cur := fetchView(ctx, ep, &flags, cluster, *from, *rank)
		layout := layoutForView(&flags, cluster, cur)
		next, err := cur.WithDrained(*rank, layout)
		if err != nil {
			fail("%v", err)
		}
		fmt.Printf("draining server %d: epoch %d→%d, moving %d of %d keys…\n",
			*rank, cur.Epoch, next.Epoch,
			keyrange.Moved(cur.Assignment, next.Assignment), layout.NumKeys())
		// The drained rank must also install the next view (to stream its
		// keys out and fence late requests), so the distribution set is
		// the union of the current and next active sets.
		ranks := unionRanks(cur.ActiveServers(), next.ActiveServers())
		if err := core.DistributeView(ctx, ep, next, ranks); err != nil {
			fail("%v", err)
		}
		// Every worker acked the new view, so no more traffic routes to
		// the drained rank: it can shut down.
		down := &transport.Message{Type: transport.MsgShutdown, To: transport.Server(*rank)}
		if err := ep.Send(down); err != nil {
			fail("shutdown server %d: %v", *rank, err)
		}
		fmt.Printf("drain complete: view epoch %d, server %d shut down\n", next.Epoch, *rank)

	case "promote":
		// -rank names the DEAD server; the view comes from a survivor.
		cur := fetchView(ctx, ep, &flags, cluster, *from, *rank)
		backup := cur.BackupOf(*rank)
		if backup < 0 {
			fail("no backup for server %d (replicas=%d)", *rank, cur.Replicas)
		}
		fmt.Printf("promoting server %d's backup (host %d): epoch %d→%d…\n",
			*rank, backup, cur.Epoch, cur.Epoch+1)
		next, err := core.PromoteServer(ctx, ep, cur, *rank)
		if err != nil {
			fail("%v", err)
		}
		if err := core.DistributeView(ctx, ep, next, nil); err != nil {
			fail("%v", err)
		}
		fmt.Printf("promotion complete: view epoch %d, server %d served by %s\n",
			next.Epoch, *rank, next.ServerAddr(*rank))

	default:
		usage("unknown command %q", cmd)
	}
}

// layoutForView reconstructs the communication layout the cluster was
// bootstrapped with. The layout never changes after bootstrap (elastic
// transitions move keys, never re-slice them), so its key count equals
// the view's assignment — which pins the EPS slice count regardless of
// how membership has evolved since.
func layoutForView(flags *clustercfg.Flags, cluster *clustercfg.Cluster, v *clusterview.View) *keyrange.Layout {
	work, err := flags.Workload()
	if err != nil {
		usage("%v", err)
	}
	layout := work.Model.Layout()
	if v.Assignment.NumKeys() == layout.NumKeys() {
		return layout
	}
	eps, err := keyrange.EPSLayout(layout.TotalDim(), v.Assignment.NumKeys())
	if err != nil || eps.NumKeys() != v.Assignment.NumKeys() {
		fail("cannot reconstruct a %d-key layout for the cluster's %d-dim model", v.Assignment.NumKeys(), layout.TotalDim())
	}
	return eps
}

// fetchView queries the current view. A non-negative from pins the source
// rank; otherwise the lowest rank ≠ avoid is tried first, falling through
// the list on errors (a dead primary must not block a promote).
func fetchView(ctx context.Context, ep transport.Endpoint, flags *clustercfg.Flags, cluster *clustercfg.Cluster, from, avoid int) *clusterview.View {
	if from >= 0 {
		v, err := core.QueryView(ctx, ep, from)
		if err != nil {
			fail("%v", err)
		}
		return v
	}
	var lastErr error
	for m := range cluster.ServerAddrs {
		if m == avoid {
			continue
		}
		qctx := ctx
		var cancel context.CancelFunc
		if flags.Timeout <= 0 {
			// Bound each probe so one dead rank cannot hang the sweep.
			qctx, cancel = context.WithTimeout(ctx, 5*time.Second)
		}
		v, err := core.QueryView(qctx, ep, m)
		if cancel != nil {
			cancel()
		}
		if err == nil {
			return v
		}
		lastErr = err
	}
	fail("no server answered a view query: %v", lastErr)
	return nil
}

// unionRanks merges two rank sets, ascending.
func unionRanks(a, b []int) []int {
	seen := map[int]bool{}
	for _, m := range a {
		seen[m] = true
	}
	for _, m := range b {
		seen[m] = true
	}
	out := make([]int, 0, len(seen))
	for m := range seen {
		out = append(out, m)
	}
	sort.Ints(out)
	return out
}

// printView renders a view for humans.
func printView(v *clusterview.View) {
	fmt.Printf("epoch %d, replicas %d, scheduler %s\n", v.Epoch, v.Replicas, v.SchedulerAddr)
	w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(w, "member\taddr\tstate\thost\tkeys\tbackup")
	for m := range v.Servers {
		mem := v.Servers[m]
		fmt.Fprintf(w, "server %d\t%s\t%s\t%d\t%d\t%d\n",
			m, mem.Addr, mem.State, mem.Host, len(v.Assignment.KeysOf(m)), v.BackupOf(m))
	}
	for n := range v.Workers {
		mem := v.Workers[n]
		fmt.Fprintf(w, "worker %d\t%s\t%s\t\t\t\n", n, mem.Addr, mem.State)
	}
	w.Flush()
}

// scrapeStats fetches each node's /debug/fluentps snapshot over HTTP and
// renders the union of their metrics as one table — a row per metric, a
// column per node. An unreachable node keeps its column ("-" cells) so a
// partial outage is visible instead of silently shrinking the table.
func scrapeStats(addrs []string) {
	type column struct {
		addr string
		snap telemetry.Snapshot
		ok   bool
	}
	var cols []column
	names := map[string]bool{}
	for _, addr := range addrs {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		snap, err := telemetry.Scrape(addr)
		if err != nil {
			log.Printf("%v", err)
			cols = append(cols, column{addr: addr})
			continue
		}
		for n := range snap.Counters {
			names[n] = true
		}
		for n := range snap.Gauges {
			names[n] = true
		}
		for n := range snap.Histograms {
			names[n] = true
		}
		cols = append(cols, column{addr: addr, snap: snap, ok: true})
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprint(w, "metric")
	for _, c := range cols {
		fmt.Fprintf(w, "\t%s", c.addr)
	}
	fmt.Fprintln(w)
	for _, n := range sorted {
		fmt.Fprint(w, n)
		for _, c := range cols {
			fmt.Fprintf(w, "\t%s", metricCell(c.snap, c.ok, n))
		}
		fmt.Fprintln(w)
	}
	w.Flush()
}

// metricCell formats one node's value of one metric, "-" when the node
// does not expose it (or was unreachable).
func metricCell(s telemetry.Snapshot, ok bool, name string) string {
	if !ok {
		return "-"
	}
	if _, present := s.Counters[name]; present {
		return strconv.FormatUint(s.CounterOr(name, 0), 10)
	}
	if _, present := s.Gauges[name]; present {
		return strconv.FormatInt(s.GaugeOr(name, 0), 10)
	}
	if h, present := s.HistogramOf(name); present {
		return fmt.Sprintf("n=%d p50=%v p99=%v", h.Count, time.Duration(h.P50), time.Duration(h.P99))
	}
	return "-"
}
