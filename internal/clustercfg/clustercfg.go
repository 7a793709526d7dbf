// Package clustercfg parses the shared command-line configuration of the
// real-TCP deployment binaries (cmd/fluentps-scheduler, -server, -worker):
// cluster topology, workload preset, and synchronization model. All three
// binaries must be started with identical topology and workload flags.
package clustercfg

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"github.com/fluentps/fluentps/internal/clusterview"
	"github.com/fluentps/fluentps/internal/dataset"
	"github.com/fluentps/fluentps/internal/keyrange"
	"github.com/fluentps/fluentps/internal/mlmodel"
	"github.com/fluentps/fluentps/internal/optimizer"
	"github.com/fluentps/fluentps/internal/syncmodel"
	"github.com/fluentps/fluentps/internal/transport"
)

// Cluster describes topology: the scheduler address, every server's
// address, and every worker's address (servers dial workers back to
// deliver pull responses, so the full mesh must be known to all nodes).
type Cluster struct {
	SchedulerAddr string
	ServerAddrs   []string
	WorkerAddrs   []string
}

// Workers returns the cluster's worker count.
func (c *Cluster) Workers() int { return len(c.WorkerAddrs) }

// Book builds the full address book.
func (c *Cluster) Book() map[transport.NodeID]string {
	book := map[transport.NodeID]string{
		transport.Scheduler(): c.SchedulerAddr,
	}
	for m, addr := range c.ServerAddrs {
		book[transport.Server(m)] = addr
	}
	for n, addr := range c.WorkerAddrs {
		book[transport.Worker(n)] = addr
	}
	return book
}

// Workload bundles the model, data, and training hyper-parameters.
type Workload struct {
	Model       mlmodel.Model
	Train, Test *dataset.Dataset
	Opt         func() optimizer.Optimizer
	BatchSize   int
	Iters       int
	Seed        int64
}

// Sync is the chosen synchronization configuration.
type Sync struct {
	Model  syncmodel.Model
	Drain  syncmodel.DrainPolicy
	UseEPS bool
	// Adaptive carries the adaptive policy's knobs into ServerConfig when
	// Model is the adaptive preset (zero otherwise).
	Adaptive syncmodel.AdaptiveConfig
	// AdaptEvery is the adaptive re-evaluation period (0 = server default).
	AdaptEvery time.Duration
}

// Flags holds the raw flag values; call Parse after flag.Parse.
type Flags struct {
	Scheduler string
	Servers   string
	WorkerStr string

	Dataset string
	Net     string
	Sync    string
	S       int
	C       float64
	Drain   string
	EPS     bool

	// Adaptive sync controller (-sync=adaptive): staleness bounds, the
	// re-evaluation period, and whether the bimodal regime may pick
	// drop-stragglers over ASP.
	AdaptMin   int
	AdaptMax   int
	AdaptEvery time.Duration
	AdaptDrop  bool

	Batch int
	Iters int
	LR    float64
	Seed  int64

	// Request-lifecycle hardening (workers).
	Timeout   time.Duration
	Retries   int
	RetryBase time.Duration
	RetryMax  time.Duration
	// Duplicate-suppression window (servers); 0 = default, <0 disables.
	DedupWindow int
	// Parallel apply engine (servers); 0 = derive from GOMAXPROCS.
	ApplyWorkers int
	ApplyStripes int
	// Fault injection (transport.Flaky), for resilience testing.
	FlakyDrop      float64
	FlakyDup       float64
	FlakyDelayProb float64
	FlakyMaxDelay  time.Duration
	FlakySeed      int64

	// Telemetry: the opt-in runtime metrics endpoint and the periodic
	// one-line summary log (see internal/telemetry and StartTelemetry).
	DebugAddr  string
	StatsEvery time.Duration

	// Replicas is the shard replication factor of the bootstrap cluster
	// view (1 = no replication, 2 = ring-successor backups).
	Replicas int
}

// Register installs the shared flags on the given FlagSet.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Scheduler, "scheduler", "127.0.0.1:7070", "scheduler listen/dial address")
	fs.StringVar(&f.Servers, "servers", "127.0.0.1:7071", "comma-separated server addresses (rank order)")
	fs.StringVar(&f.WorkerStr, "workerAddrs", "127.0.0.1:7081,127.0.0.1:7082", "comma-separated worker addresses (rank order)")
	fs.StringVar(&f.Dataset, "dataset", "cifar10", "dataset preset: cifar10 | cifar100")
	fs.StringVar(&f.Net, "model", "softmax", "model preset: softmax | mlp")
	fs.StringVar(&f.Sync, "sync", "ssp", "sync model: bsp | asp | ssp | pssp | pssp-dyn | dsps | drop | adaptive")
	fs.IntVar(&f.S, "staleness", 3, "staleness threshold s (ssp/pssp/dsps/adaptive initial)")
	fs.Float64Var(&f.C, "prob", 0.5, "PSSP blocking probability / dynamic α / drop quorum fraction")
	fs.IntVar(&f.AdaptMin, "adaptMin", 1, "adaptive sync: lower staleness bound")
	fs.IntVar(&f.AdaptMax, "adaptMax", 8, "adaptive sync: upper staleness bound")
	fs.DurationVar(&f.AdaptEvery, "adaptEvery", 0, "adaptive sync: re-evaluation period; 0 = default (250ms)")
	fs.BoolVar(&f.AdaptDrop, "adaptDrop", false, "adaptive sync: allow drop-stragglers in the bimodal regime (discards late gradients)")
	fs.StringVar(&f.Drain, "drain", "lazy", "DPR drain policy: lazy | soft")
	fs.BoolVar(&f.EPS, "eps", true, "use Elastic Parameter Slicing")
	fs.IntVar(&f.Batch, "batch", 32, "per-worker minibatch size")
	fs.IntVar(&f.Iters, "iters", 200, "training iterations per worker")
	fs.Float64Var(&f.LR, "lr", 0.1, "learning rate")
	fs.Int64Var(&f.Seed, "seed", 1, "deterministic seed")
	fs.DurationVar(&f.Timeout, "timeout", 0, "per-request worker timeout; 0 waits forever")
	fs.IntVar(&f.Retries, "retries", 0, "max send attempts per worker request; 0 = unlimited while retryBase > 0")
	fs.DurationVar(&f.RetryBase, "retryBase", 0, "base retransmission backoff; 0 disables retries")
	fs.DurationVar(&f.RetryMax, "retryMax", 2*time.Second, "retransmission backoff cap")
	fs.IntVar(&f.DedupWindow, "dedupWindow", 0, "per-worker duplicate-request window on servers; 0 = default, negative disables")
	fs.IntVar(&f.ApplyWorkers, "applyWorkers", 0, "server apply-engine pool size; 0 = GOMAXPROCS, 1 = pool of one (batches applied inline)")
	fs.IntVar(&f.ApplyStripes, "applyStripes", 0, "shard lock stripes (rounded up to a power of two); 0 = 4×applyWorkers")
	fs.Float64Var(&f.FlakyDrop, "flakyDrop", 0, "fault injection: probability a data-plane frame is dropped")
	fs.Float64Var(&f.FlakyDup, "flakyDup", 0, "fault injection: probability a data-plane frame is duplicated")
	fs.Float64Var(&f.FlakyDelayProb, "flakyDelayProb", 0, "fault injection: probability a data-plane frame is delayed")
	fs.DurationVar(&f.FlakyMaxDelay, "flakyMaxDelay", 50*time.Millisecond, "fault injection: max injected delay")
	fs.Int64Var(&f.FlakySeed, "flakySeed", 1, "fault injection: deterministic seed")
	fs.StringVar(&f.DebugAddr, "debugAddr", "", "serve JSON runtime metrics at http://<addr>/debug/fluentps; empty disables")
	fs.DurationVar(&f.StatsEvery, "statsEvery", 0, "log a one-line telemetry summary at this interval; 0 disables")
	fs.IntVar(&f.Replicas, "replicas", 1, "shard replication factor: 1 = none, 2 = ring-successor backup per shard")
}

// Fault materializes the fault-injection configuration; ok is false when
// no fault is enabled (endpoints should then stay unwrapped).
func (f *Flags) Fault() (cfg transport.FlakyConfig, ok bool) {
	if f.FlakyDrop <= 0 && f.FlakyDup <= 0 && f.FlakyDelayProb <= 0 {
		return transport.FlakyConfig{}, false
	}
	return transport.FlakyConfig{
		Drop:      f.FlakyDrop,
		Duplicate: f.FlakyDup,
		Delay:     f.FlakyDelayProb,
		MaxDelay:  f.FlakyMaxDelay,
		Seed:      f.FlakySeed,
	}, true
}

// WrapFaulty wraps ep in a transport.Flaky when fault injection is
// enabled, and returns ep unchanged otherwise.
func (f *Flags) WrapFaulty(ep transport.Endpoint) transport.Endpoint {
	cfg, ok := f.Fault()
	if !ok {
		return ep
	}
	return transport.NewFlaky(ep, cfg)
}

// Cluster materializes the topology.
func (f *Flags) Cluster() (*Cluster, error) {
	servers := strings.Split(f.Servers, ",")
	if len(servers) == 0 || servers[0] == "" {
		return nil, fmt.Errorf("clustercfg: at least one server address required")
	}
	workers := strings.Split(f.WorkerStr, ",")
	if len(workers) == 0 || workers[0] == "" {
		return nil, fmt.Errorf("clustercfg: at least one worker address required")
	}
	return &Cluster{SchedulerAddr: f.Scheduler, ServerAddrs: servers, WorkerAddrs: workers}, nil
}

// BootstrapView builds the epoch-1 cluster view the flags describe —
// the single constructor through which flag-derived topology enters the
// ClusterView world; everything after bootstrap evolves views through
// clusterview transitions (WithJoined/WithDrained/WithPromoted), never
// from flags again.
func (f *Flags) BootstrapView(c *Cluster, assign *keyrange.Assignment) *clusterview.View {
	return clusterview.Bootstrap(c.SchedulerAddr, c.ServerAddrs, c.WorkerAddrs, assign, f.Replicas)
}

// Workload materializes the model/data preset.
func (f *Flags) Workload() (*Workload, error) {
	var train, test *dataset.Dataset
	switch f.Dataset {
	case "cifar10":
		train, test = dataset.CIFAR10Like(f.Seed)
	case "cifar100":
		train, test = dataset.CIFAR100Like(f.Seed)
	default:
		return nil, fmt.Errorf("clustercfg: unknown dataset %q", f.Dataset)
	}
	var model mlmodel.Model
	var err error
	switch f.Net {
	case "softmax":
		model, err = mlmodel.NewSoftmax(train.Classes, train.Dim, nil)
	case "mlp":
		model, err = mlmodel.NewMLP(train.Dim, 64, train.Classes, nil)
	default:
		return nil, fmt.Errorf("clustercfg: unknown model %q", f.Net)
	}
	if err != nil {
		return nil, err
	}
	lr := f.LR
	return &Workload{
		Model: model, Train: train, Test: test,
		Opt:       func() optimizer.Optimizer { return &optimizer.SGD{LR: lr} },
		BatchSize: f.Batch, Iters: f.Iters, Seed: f.Seed,
	}, nil
}

// SyncConfig materializes the synchronization model.
func (f *Flags) SyncConfig(workers int) (*Sync, error) {
	var m syncmodel.Model
	var acfg syncmodel.AdaptiveConfig
	switch f.Sync {
	case "bsp":
		m = syncmodel.BSP()
	case "asp":
		m = syncmodel.ASP()
	case "ssp":
		m = syncmodel.SSP(f.S)
	case "pssp":
		m = syncmodel.PSSPConst(f.S, f.C)
	case "pssp-dyn":
		m = syncmodel.PSSPDynamic(f.S, f.C)
	case "dsps":
		m = syncmodel.DSPS(syncmodel.DSPSConfig{Initial: f.S, Min: 1, Max: 4 * f.S})
	case "drop":
		nt := int(f.C * float64(workers))
		if nt < 1 {
			nt = 1
		}
		m = syncmodel.DropStragglers(nt)
	case "adaptive":
		acfg = syncmodel.AdaptiveConfig{
			InitialS:  f.S,
			MinS:      f.AdaptMin,
			MaxS:      f.AdaptMax,
			AllowDrop: f.AdaptDrop,
		}
		m = syncmodel.Adaptive(acfg)
	default:
		return nil, fmt.Errorf("clustercfg: unknown sync model %q", f.Sync)
	}
	var drain syncmodel.DrainPolicy
	switch f.Drain {
	case "lazy":
		drain = syncmodel.Lazy
	case "soft":
		drain = syncmodel.SoftBarrier
	default:
		return nil, fmt.Errorf("clustercfg: unknown drain policy %q", f.Drain)
	}
	return &Sync{Model: m, Drain: drain, UseEPS: f.EPS, Adaptive: acfg, AdaptEvery: f.AdaptEvery}, nil
}

// Slicing returns the communication layout and assignment for the cluster.
func (s *Sync) Slicing(model mlmodel.Model, servers int) (*keyrange.Layout, *keyrange.Assignment, error) {
	layout := model.Layout()
	if s.UseEPS {
		var err error
		layout, err = keyrange.EPSLayout(layout.TotalDim(), 4*servers)
		if err != nil {
			return nil, nil, err
		}
		assign, err := keyrange.EPS(layout, servers)
		return layout, assign, err
	}
	assign, err := keyrange.DefaultSlicing(layout, servers)
	return layout, assign, err
}
