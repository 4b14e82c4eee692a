package datampi

// The Scenario API is the declarative face of multi-tenant execution: a
// whole evaluation — who the tenants are, which jobs arrive when, what
// goes wrong mid-trace, and which scheduling features are on — is
// described up front and run deterministically in one call. It replaces
// the imperative idiom (construct a Queue, call Submit/SubmitWeighted,
// sprinkle SetSpeculation/SetPreemption, poke SlowNode
// before Run) that made BigDataBench-style workload traces awkward to
// express, and it returns a structured Report with per-job and per-tenant
// response-time distributions, slot-occupancy shares, the perturbation
// timeline and the task-lifecycle counters.
//
//	sc := datampi.NewScenario(tb,
//		datampi.WithPolicy(datampi.Fair),
//		datampi.WithSpeculation(datampi.SpeculationConfig{Enabled: true}),
//		datampi.Tenant("analytics", 2, eng),
//		datampi.Tenant("adhoc", 1, eng),
//		datampi.PoissonArrivals("adhoc", 0.05, 12, 42, mkGrepJob),
//		datampi.Arrive("analytics", 0, wordCountJob),
//		datampi.At(120, datampi.SlowNode(7, 4)),
//		datampi.At(300, datampi.RestoreNode(7)),
//	)
//	rep, err := sc.Run()
//
// Runs are deterministic: the same scenario (same testbed seed, same
// arrival seeds) reproduces the same report bit for bit.

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"

	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/metrics"
	"github.com/datampi/datampi-go/internal/sched"
	"github.com/datampi/datampi-go/internal/trace"
	"github.com/datampi/datampi-go/internal/transport"
)

// Dist is a latency-distribution summary (count, mean, nearest-rank
// p50/p95, extremes) used by scenario reports.
type Dist = metrics.Dist

// TimelineEntry is one named perturbation on a scenario's timeline.
type TimelineEntry = sched.TimelineEntry

// Arrival is one job arriving for a tenant at a scenario-relative time —
// the row format of a workload trace (see Trace).
type Arrival struct {
	Tenant string
	At     float64 // seconds after the scenario starts
	Job    Job
}

// Event is a timed perturbation applied to the running scenario. Build
// them with SlowNode, RestoreNode, NodeDown, GrowSlots and ShrinkSlots,
// and schedule them with At.
type Event struct {
	name     string
	apply    func(rc *runCtx)
	validate func(tb *Testbed) error // nil = nothing to check before Run
}

// Name returns the event's timeline label.
func (e Event) Name() string { return e.name }

// runCtx is the live context a scheduled Event mutates.
type runCtx struct {
	tb    *Testbed
	q     *Queue
	start float64         // simulated time the scenario began
	slow  map[int]float64 // cumulative SlowNode factor per node
	notes []string        // events that fired but had no effect
}

// noteMiss records an event that fired without taking effect, so the
// report never claims a perturbation that did not happen.
func (rc *runCtx) noteMiss(name, why string) {
	rc.notes = append(rc.notes, fmt.Sprintf("event %s at t=%.0fs had no effect: %s",
		name, rc.q.Now()-rc.start, why))
}

// nodesDown fails nodes in one step, in the order every failure takes:
// the filesystem stops serving their replicas, the cluster marks them
// dead, and the scheduler — told of all of them at once, so no retry lands
// on a sibling that died in the same event — kills and requeues their
// attempts.
func (rc *runCtx) nodesDown(nodes ...int) {
	for _, n := range nodes {
		rc.tb.FS.NodeDown(n)
	}
	for _, n := range nodes {
		rc.tb.Cluster.NodeDown(n)
	}
	rc.q.NodesDown(nodes)
}

// nodeUp rejoins node n in the same order and reports whether it was down.
func (rc *runCtx) nodeUp(n int) bool {
	if rc.tb.Cluster.Alive(n) && rc.tb.FS.NodeAlive(n) {
		return false
	}
	rc.tb.FS.NodeUp(n)
	rc.tb.Cluster.NodeUp(n)
	rc.q.NodeUp(n)
	return true
}

// checkNode validates a node index against the scenario's testbed at Run
// time, so a typo fails fast instead of panicking mid-simulation.
func checkNode(name string, node int) func(tb *Testbed) error {
	return func(tb *Testbed) error {
		if node < 0 || node >= tb.Cluster.N() {
			return fmt.Errorf("datampi: event %s: node %d out of range [0,%d)", name, node, tb.Cluster.N())
		}
		return nil
	}
}

// SlowNode builds an event degrading node i's CPU and disk service rates
// by factor (factor 4 = four times slower) — a failing disk, a throttled
// CPU, a noisy neighbour. In-flight work re-splits at the new rates.
func SlowNode(node int, factor float64) Event {
	name := fmt.Sprintf("slow-node-%d-x%g", node, factor)
	return Event{
		name: name,
		apply: func(rc *runCtx) {
			rc.tb.Cluster.SlowNode(node, factor)
			f := rc.slow[node]
			if f == 0 {
				f = 1
			}
			rc.slow[node] = f * factor
		},
		validate: func(tb *Testbed) error {
			if err := checkNode(name, node)(tb); err != nil {
				return err
			}
			if factor <= 0 {
				return fmt.Errorf("datampi: event %s: factor must be positive", name)
			}
			return nil
		},
	}
}

// RestoreNode builds an event undoing every SlowNode the scenario has
// applied to node i so far, returning it to full speed. Slowdowns applied
// outside the scenario (an imperative Testbed.SlowNode) are not tracked
// and not undone; a restore that finds nothing to undo is flagged in
// Report.Notes.
func RestoreNode(node int) Event {
	name := fmt.Sprintf("restore-node-%d", node)
	return Event{
		name: name,
		apply: func(rc *runCtx) {
			f := rc.slow[node]
			if f == 0 || f == 1 {
				rc.noteMiss(name, "no scenario-applied slowdown to undo")
				return
			}
			rc.tb.Cluster.SlowNode(node, 1/f)
			rc.slow[node] = 1
		},
		validate: checkNode(name, node),
	}
}

// NodeDown builds an event failing node i outright: the DFS stops serving
// its replicas, the scheduler stops placing attempts there, and attempts
// caught on it are killed and retried on healthy nodes (non-restartable
// in-flight tasks fail their job — DataMPI A ranks hold streamed state).
func NodeDown(node int) Event {
	name := fmt.Sprintf("node-down-%d", node)
	return Event{
		name:     name,
		apply:    func(rc *runCtx) { rc.nodesDown(node) },
		validate: checkNode(name, node),
	}
}

// NodeUp builds an event rejoining a previously failed node: the DFS
// reconciles its stale replicas against current generation stamps (and
// trims any over-replication the repairs left), the replication monitor
// cancels queued repairs the rejoin made redundant, and the scheduler
// resumes placing attempts there. Reviving a node that is not down is
// flagged in Report.Notes.
func NodeUp(node int) Event {
	name := fmt.Sprintf("node-up-%d", node)
	return Event{
		name: name,
		apply: func(rc *runCtx) {
			if !rc.nodeUp(node) {
				rc.noteMiss(name, "node is not down")
			}
		},
		validate: checkNode(name, node),
	}
}

// checkRack validates a rack index against the scenario's testbed.
func checkRack(name string, rack int) func(tb *Testbed) error {
	return func(tb *Testbed) error {
		if racks := tb.Cluster.Racks(); rack < 0 || rack >= racks {
			return fmt.Errorf("datampi: event %s: rack %d out of range [0,%d)", name, rack, racks)
		}
		return nil
	}
}

// RackDown builds an event failing every node in a rack at once — the
// correlated failure a lost top-of-rack switch or PDU causes. All the
// rack's nodes go down in one step: the scheduler kills and requeues their
// attempts together (preferring surviving racks for the retries), and the
// DFS loses every replica the rack held — which is why rack-aware
// placement spreads each block across at least two racks.
func RackDown(rack int) Event {
	name := fmt.Sprintf("rack-down-%d", rack)
	return Event{
		name:     name,
		apply:    func(rc *runCtx) { rc.nodesDown(rc.tb.Cluster.RackNodes(rack)...) },
		validate: checkRack(name, rack),
	}
}

// RackUp builds an event rejoining every node in a rack, with the same
// per-node reconciliation as NodeUp. Nodes in the rack that are not down
// are skipped silently (the switch came back; nodes that never lost power
// are unaffected).
func RackUp(rack int) Event {
	name := fmt.Sprintf("rack-up-%d", rack)
	return Event{
		name: name,
		apply: func(rc *runCtx) {
			any := false
			for _, n := range rc.tb.Cluster.RackNodes(rack) {
				if rc.nodeUp(n) {
					any = true
				}
			}
			if !any {
				rc.noteMiss(name, "no node in the rack is down")
			}
		},
		validate: checkRack(name, rack),
	}
}

// Flap builds an event bouncing a node count times: each cycle takes the
// node down for downFor seconds, then brings it back, with cycles starting
// period seconds apart — the repeatedly-rebooting machine that stresses
// failure detectors. Schedule it with At(t, ...): the first down fires at
// t, its recovery at t+downFor, the second down at t+period, and so on.
// A flap shorter than the replication monitor's detection delay must not
// enqueue repairs at all (the rejoin cancels them).
func Flap(node int, downFor, period float64, count int) Event {
	name := fmt.Sprintf("flap-node-%d-%gs-of-%gs-x%d", node, downFor, period, count)
	down := NodeDown(node)
	up := NodeUp(node)
	return Event{
		name: name,
		apply: func(rc *runCtx) {
			now := rc.q.Now()
			for i := 0; i < count; i++ {
				i := i
				if i == 0 {
					down.apply(rc)
				} else {
					rc.q.At(now+float64(i)*period, down.name, func() { down.apply(rc) })
				}
				rc.q.At(now+float64(i)*period+downFor, up.name, func() { up.apply(rc) })
			}
		},
		validate: func(tb *Testbed) error {
			if err := checkNode(name, node)(tb); err != nil {
				return err
			}
			if downFor <= 0 || period <= 0 || count < 1 {
				return fmt.Errorf("datampi: event %s: need positive downFor/period and count >= 1", name)
			}
			if downFor >= period {
				return fmt.Errorf("datampi: event %s: downFor %g must be shorter than period %g", name, downFor, period)
			}
			return nil
		},
	}
}

// GrowSlots builds an event widening the slot pool named kind (e.g.
// "mr-map", "dm-o", "spark-worker") to perNode slots per node — DataMPI's
// elastic pool growth on the scenario clock. Growing a pool no engine has
// created yet is a no-op.
func GrowSlots(kind string, perNode int) Event {
	name := fmt.Sprintf("grow-slots-%s-%d", kind, perNode)
	return Event{
		name: name,
		apply: func(rc *runCtx) {
			if !rc.q.GrowPool(kind, perNode) {
				rc.noteMiss(name, fmt.Sprintf("no engine has created pool %q yet", kind))
			}
		},
		validate: func(tb *Testbed) error {
			if perNode < 1 {
				return fmt.Errorf("datampi: event %s: perNode must be at least 1", name)
			}
			return nil
		},
	}
}

// ShrinkSlots builds an event narrowing the slot pool named kind to
// perNode slots per node; slots drain lazily as running tasks release
// them (no task is killed by the shrink itself).
//
// Caution with gang-scheduled pools: DataMPI's "dm-a" communicator needs
// all of a job's A ranks resident at once (the engine re-grows the pool
// per job for exactly that reason). Shrinking it below a running job's
// ranks-per-node while its A phase assembles can strand resident ranks
// waiting on siblings that can no longer get slots — a simulated
// deadlock, reported by Run as jobs that did not complete. Wave-style
// pools ("mr-map", "mr-reduce", "spark-worker") drain safely.
func ShrinkSlots(kind string, perNode int) Event {
	name := fmt.Sprintf("shrink-slots-%s-%d", kind, perNode)
	return Event{
		name: name,
		apply: func(rc *runCtx) {
			if !rc.q.ShrinkPool(kind, perNode) {
				rc.noteMiss(name, fmt.Sprintf("no engine has created pool %q yet", kind))
			}
		},
		validate: func(tb *Testbed) error {
			if perNode < 1 {
				return fmt.Errorf("datampi: event %s: perNode must be at least 1", name)
			}
			return nil
		},
	}
}

// scenarioTenant is one declared fair-share identity.
type scenarioTenant struct {
	name   string
	weight float64
	eng    ConcurrentEngine
}

// timedEvent pairs an Event with its scenario-relative fire time.
type timedEvent struct {
	at float64
	ev Event
}

// closedLoop is one declared think-time user population (ClosedLoopUsers):
// each simulated user submits a job, waits for it to complete, thinks for
// an exponentially distributed pause, and submits the next — the
// interactive complement to open-loop Poisson arrivals. Think gaps are
// pre-drawn at declaration time from the seed, so the trace is a pure
// function of the scenario description.
type closedLoop struct {
	tenant      string
	users       int
	jobsPerUser int
	gaps        [][]float64 // [user][k] think pause before the user's k-th job
	mk          func(user, k int) Job
}

// chainKey locates one in-flight closed-loop job: which population, which
// user, and which request index, so its completion can admit the next.
type chainKey struct {
	cl   *closedLoop
	user int
	k    int
}

// Scenario is a declarative multi-tenant run description. Build it with
// NewScenario and the functional options, then call Run.
type Scenario struct {
	tb       *Testbed
	policy   Policy
	spec     SpeculationConfig
	pre      PreemptionConfig
	tenants  []*scenarioTenant
	byName   map[string]*scenarioTenant
	arrivals []Arrival
	closed   []*closedLoop
	events   []timedEvent
	monCfg   *dfs.MonitorConfig
	stream   bool
	tpCfg    *TransportConfig
	trcCfg   *TraceConfig
	err      error
}

// ScenarioOption configures a Scenario under construction.
type ScenarioOption func(*Scenario)

// NewScenario builds a scenario over an existing testbed. Options declare
// tenants, arrivals, timed events and scheduling features; configuration
// errors are collected and returned by Run.
func NewScenario(tb *Testbed, opts ...ScenarioOption) *Scenario {
	s := &Scenario{tb: tb, policy: FIFO, byName: make(map[string]*scenarioTenant)}
	if tb == nil || tb.Cluster == nil || tb.FS == nil {
		s.fail(fmt.Errorf("datampi: NewScenario needs a testbed with a cluster and filesystem"))
		return s
	}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// fail records the first configuration error for Run to report.
func (s *Scenario) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// Tenant declares a fair-share identity: jobs arriving under name run on
// eng and, under the Fair policy, share slots in proportion to weight
// (weights at or below zero are treated as 1).
func Tenant(name string, weight float64, eng ConcurrentEngine) ScenarioOption {
	return func(s *Scenario) {
		if name == "" {
			s.fail(fmt.Errorf("datampi: tenant needs a name"))
			return
		}
		if eng == nil {
			s.fail(fmt.Errorf("datampi: tenant %s needs an engine", name))
			return
		}
		if _, dup := s.byName[name]; dup {
			s.fail(fmt.Errorf("datampi: tenant %s declared twice", name))
			return
		}
		if weight <= 0 {
			weight = 1
		}
		t := &scenarioTenant{name: name, weight: weight, eng: eng}
		s.tenants = append(s.tenants, t)
		s.byName[name] = t
	}
}

// Arrive schedules one job for tenant at scenario-relative time at.
func Arrive(tenant string, at float64, j Job) ScenarioOption {
	return func(s *Scenario) {
		s.arrivals = append(s.arrivals, Arrival{Tenant: tenant, At: at, Job: j})
	}
}

// Trace appends a whole workload trace — arrivals replayed as recorded.
func Trace(arrivals []Arrival) ScenarioOption {
	return func(s *Scenario) {
		s.arrivals = append(s.arrivals, arrivals...)
	}
}

// PoissonArrivals schedules n jobs for tenant as an open-loop Poisson
// process with the given arrival rate (jobs per simulated second):
// inter-arrival gaps are exponentially distributed, drawn from a
// deterministic generator seeded with seed, so the same seed always
// produces the same trace. mk builds the i-th arriving job (0-based) —
// typically the same workload against a fresh output path.
func PoissonArrivals(tenant string, rate float64, n int, seed int64, mk func(i int) Job) ScenarioOption {
	return func(s *Scenario) {
		if rate <= 0 {
			s.fail(fmt.Errorf("datampi: PoissonArrivals rate must be positive, got %v", rate))
			return
		}
		if mk == nil {
			s.fail(fmt.Errorf("datampi: PoissonArrivals needs a job builder"))
			return
		}
		rng := rand.New(rand.NewSource(seed))
		at := 0.0
		for i := 0; i < n; i++ {
			at += -math.Log(1-rng.Float64()) / rate
			s.arrivals = append(s.arrivals, Arrival{Tenant: tenant, At: at, Job: mk(i)})
		}
	}
}

// ClosedLoopUsers declares a think-time user population for tenant: users
// simulated users each submit jobsPerUser jobs, one at a time, pausing an
// exponentially distributed think time (mean thinkMean simulated seconds)
// before each submission — including an initial pause, so the population
// ramps in rather than stampeding at t=0. A user's next job is admitted
// only after its previous one completes, which makes the offered load
// self-limiting under saturation, the closed-loop complement to
// PoissonArrivals. mk builds user's k-th job (both 0-based); think gaps
// are pre-drawn from seed at declaration time, so the same scenario
// reproduces the same trace bit for bit.
func ClosedLoopUsers(tenant string, users, jobsPerUser int, thinkMean float64, seed int64, mk func(user, k int) Job) ScenarioOption {
	return func(s *Scenario) {
		if users <= 0 || jobsPerUser <= 0 {
			s.fail(fmt.Errorf("datampi: ClosedLoopUsers needs positive users and jobsPerUser, got %d and %d", users, jobsPerUser))
			return
		}
		if thinkMean <= 0 {
			s.fail(fmt.Errorf("datampi: ClosedLoopUsers think time must be positive, got %v", thinkMean))
			return
		}
		if mk == nil {
			s.fail(fmt.Errorf("datampi: ClosedLoopUsers needs a job builder"))
			return
		}
		rng := rand.New(rand.NewSource(seed))
		gaps := make([][]float64, users)
		for u := range gaps {
			gaps[u] = make([]float64, jobsPerUser)
			for k := range gaps[u] {
				gaps[u][k] = -math.Log(1-rng.Float64()) * thinkMean
			}
		}
		s.closed = append(s.closed, &closedLoop{
			tenant: tenant, users: users, jobsPerUser: jobsPerUser, gaps: gaps, mk: mk,
		})
	}
}

// At schedules a timed perturbation at scenario-relative time t. Events
// at or before time zero apply before the first admission (the imperative
// "configure the cluster before Run" idiom); later events fire on the sim
// clock, after any arrival sharing their timestamp.
func At(t float64, ev Event) ScenarioOption {
	return func(s *Scenario) {
		s.events = append(s.events, timedEvent{at: t, ev: ev})
	}
}

// FaultKind selects a fault class for FaultPlan's generator.
type FaultKind int

const (
	// FaultNodeDown fails one node and revives it after the drawn outage.
	FaultNodeDown FaultKind = iota
	// FaultRackDown fails a whole rack and revives it after the drawn
	// outage (drawn only on multi-rack testbeds).
	FaultRackDown
	// FaultFlap bounces one node twice with sub-outage down intervals.
	FaultFlap
)

func (k FaultKind) String() string {
	switch k {
	case FaultNodeDown:
		return "node-down"
	case FaultRackDown:
		return "rack-down"
	case FaultFlap:
		return "flap"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// FaultPlan generates a deterministic correlated-failure schedule and
// injects it into the scenario: n faults whose start times form a Poisson
// process with the given rate (faults per simulated second), each drawn
// from kinds (all three classes when empty) with a uniform target and a
// uniform 15–45s outage. Node and rack faults get a matching revival
// event; flaps bounce their node twice within the outage window. The
// whole plan is a pure function of (seed, rate, n, kinds, topology):
// replaying the same plan on the same testbed reproduces the same
// timeline and report bit for bit, which is what makes a failure-mode
// regression diffable. Rack faults are drawn only when the testbed has
// more than one rack; asking for only FaultRackDown on a single-rack
// testbed is a configuration error.
func FaultPlan(seed int64, rate float64, n int, kinds ...FaultKind) ScenarioOption {
	return func(s *Scenario) {
		if rate <= 0 {
			s.fail(fmt.Errorf("datampi: FaultPlan rate must be positive, got %v", rate))
			return
		}
		if n < 1 {
			s.fail(fmt.Errorf("datampi: FaultPlan needs at least one fault, got %d", n))
			return
		}
		if len(kinds) == 0 {
			kinds = []FaultKind{FaultNodeDown, FaultRackDown, FaultFlap}
		}
		racks := s.tb.Cluster.Racks()
		var usable []FaultKind
		for _, k := range kinds {
			switch k {
			case FaultNodeDown, FaultFlap:
				usable = append(usable, k)
			case FaultRackDown:
				if racks > 1 {
					usable = append(usable, k)
				}
			default:
				s.fail(fmt.Errorf("datampi: FaultPlan: unknown fault kind %d", int(k)))
				return
			}
		}
		if len(usable) == 0 {
			s.fail(fmt.Errorf("datampi: FaultPlan: rack faults need a multi-rack testbed (have %d rack)", racks))
			return
		}
		rng := rand.New(rand.NewSource(seed))
		nodes := s.tb.Cluster.N()
		at := 0.0
		for i := 0; i < n; i++ {
			at += -math.Log(1-rng.Float64()) / rate
			outage := 15 + 30*rng.Float64()
			switch usable[rng.Intn(len(usable))] {
			case FaultNodeDown:
				node := rng.Intn(nodes)
				s.events = append(s.events,
					timedEvent{at: at, ev: NodeDown(node)},
					timedEvent{at: at + outage, ev: NodeUp(node)})
			case FaultRackDown:
				rack := rng.Intn(racks)
				s.events = append(s.events,
					timedEvent{at: at, ev: RackDown(rack)},
					timedEvent{at: at + outage, ev: RackUp(rack)})
			case FaultFlap:
				node := rng.Intn(nodes)
				down := 3 + 9*rng.Float64() // short enough to beat slack detection delays sometimes
				s.events = append(s.events,
					timedEvent{at: at, ev: Flap(node, down, outage/2, 2)})
			}
		}
	}
}

// WithPolicy selects the slot-contention policy (FIFO or Fair; the
// default is FIFO).
func WithPolicy(p Policy) ScenarioOption {
	return func(s *Scenario) { s.policy = p }
}

// WithSpeculation enables/configures speculative execution for every job
// in the scenario (replaces Queue.SetSpeculation).
func WithSpeculation(c SpeculationConfig) ScenarioOption {
	return func(s *Scenario) { s.spec = c }
}

// WithPreemption enables/configures Fair-policy slot preemption for
// starved jobs (replaces Queue.SetPreemption).
func WithPreemption(c PreemptionConfig) ScenarioOption {
	return func(s *Scenario) { s.pre = c }
}

// WithReplicationMonitor runs a DFS replication monitor for the duration
// of the scenario: on every NodeDown event the monitor waits out its
// detection delay and then re-replicates the dead node's blocks back to
// the configured factor, its copies contending with foreground jobs for
// the same disks and links. The zero config takes the documented defaults
// (see dfs.MonitorConfig); Report.Recovery carries the recovery counters.
func WithReplicationMonitor(cfg ReplicationMonitorConfig) ScenarioOption {
	return func(s *Scenario) { s.monCfg = &cfg }
}

// WithStreamingReport keeps the run's memory proportional to queued and
// running jobs instead of the whole trace: each submission's response
// time, slot-seconds and outcome fold into per-tenant aggregates the
// moment it completes, and the submission — with its scheduling state —
// is then discarded. The report carries everything except the per-job
// list (Report.Jobs stays empty; Report.Submitted still counts the
// trace). Use it for datacenter-scale traces where a per-job row per
// submission is itself the memory bottleneck.
func WithStreamingReport() ScenarioOption {
	return func(s *Scenario) { s.stream = true }
}

// TransportConfig is the WithTransport knob: it switches the tenants'
// engines onto the staged communication model for the scenario's
// duration. Each engine keeps its own per-engine TransportProfile
// (Hadoop copy+buffer, Spark serialized shuffle, DataMPI
// zero-copy-eligible), set at engine construction via the engine
// Config's Transport field.
type TransportConfig struct {
	// Enabled switches the staged serialize/copy/wire/deserialize
	// accounting on. Off (the default everywhere else) keeps the legacy
	// fluid-flow model bit-identical.
	Enabled bool
	// Pipeline overrides the profiles' pipelined-shuffle flag:
	// PipelineProfile (default) follows each profile, PipelineOn forces
	// map outputs fetchable as blocks commit, PipelineOff forces
	// fetch-at-completion.
	Pipeline TransportPipeline
}

// WithTransport applies a staged-transport configuration to every
// tenant engine that supports it, for the duration of the run; prior
// transport state is restored afterwards. Report.Transport carries the
// run's staged counters (bytes serialized/copied/zero-copied, pipeline
// overlap fraction).
func WithTransport(cfg TransportConfig) ScenarioOption {
	return func(s *Scenario) { s.tpCfg = &cfg }
}

// WithTracing records a structured span trace of the run: task attempts
// on per-node slot lanes, queue admission→dispatch waits, engine phases,
// shuffle fetches with their dependency edges, transport stages, DFS
// repairs, and every timeline perturbation as an instant. The recorder is
// a pure observer — a traced run's simulated timings, event order and
// results are bit-identical to an untraced run — and the finished trace
// comes back on Report.Trace (export it with Report.WriteTrace, analyze
// it with Tracer.CriticalPath). The zero TraceConfig records everything;
// see TraceConfig for the volume knobs.
func WithTracing(cfg TraceConfig) ScenarioOption {
	return func(s *Scenario) { s.trcCfg = &cfg }
}

// JobReport is one job's outcome within a scenario report.
type JobReport struct {
	Tenant  string
	Arrival float64 // scenario-relative arrival time
	// Response is completion minus arrival — what the tenant waited,
	// queueing included. Zero if the job failed before producing an end
	// time.
	Response    float64
	SlotSeconds float64 // slot occupancy across all the job's attempts
	Result      Result  // the engine's full result (timings, counters, error)
}

// TenantReport aggregates one tenant's jobs.
type TenantReport struct {
	Name        string
	Weight      float64
	Jobs        int
	Failed      int
	Response    Dist    // response-time distribution of the tenant's successful jobs
	SlotSeconds float64 // total slot occupancy of the tenant's attempts
	SlotShare   float64 // fraction of all slot-seconds consumed in the scenario
}

// RecoveryStats aggregates the fault-recovery work a scenario performed:
// the DFS replication monitor's copies and losses (zero unless
// WithReplicationMonitor was set) and the engines' task recomputation.
type RecoveryStats struct {
	BlocksRereplicated int     // replicas the monitor created
	BytesRereplicated  float64 // nominal bytes it copied
	BlocksLost         int     // blocks that lost every replica
	BytesLost          float64 // nominal bytes of those blocks
	TasksRecomputed    int     // settled tasks re-executed for lost outputs
	// Rejoin reconciliation and bounded-retry accounting (this run only;
	// per-testbed counters are deltaed across the scenario).
	StaleReplicasPruned  int // outdated replicas dropped when their node rejoined
	ExcessReplicasPruned int // over-factor replicas trimmed after rejoin races
	RepairsCancelled     int // queued monitor repairs a rejoin made redundant
	CacheRecomputes      int // cached partitions recomputed after executor loss
	PermanentFailures    int // tasks that exhausted their node-failure retries
}

// Report is a completed scenario's structured outcome.
type Report struct {
	// Jobs lists every admitted job in admission order (arrival time,
	// declaration order on ties). Empty under WithStreamingReport, where
	// per-job rows are folded into the tenant aggregates as jobs complete.
	Jobs []JobReport
	// Submitted counts every job the scenario admitted, including the
	// ones a streaming report discarded after aggregation.
	Submitted int
	// Tenants aggregates per-tenant latency and slot shares, in
	// declaration order.
	Tenants []TenantReport
	// Timeline is the perturbation log (scenario-relative times).
	Timeline []TimelineEntry
	// Notes flags events that fired but had no effect (e.g. growing a
	// slot pool no engine had created yet), so the timeline is never
	// read as claiming a perturbation that did not happen.
	Notes []string
	// Tracker carries the task-lifecycle counters (backups, kills,
	// preemptions, node-failure retries).
	Tracker TrackerStats
	// Recovery carries the fault-recovery counters (DFS re-replication,
	// data loss, task recomputation).
	Recovery RecoveryStats
	// Transport carries the staged-transport counters accumulated while
	// the scenario ran (zero unless WithTransport enabled the model).
	Transport TransportStats
	// Trace is the run's span recorder (nil unless WithTracing was set).
	// Export it with WriteTrace; walk it with Tracer.CriticalPath,
	// Tracer.PhaseBreakdown and friends.
	Trace *Tracer
	// Phases breaks each tenant's span-derived phase time down by phase
	// name (map/reduce, O/A, stage0/stage1...), summed over the tenant's
	// jobs. Populated only when WithTracing was set.
	Phases map[string]map[string]float64
	// Start and End bracket the jobs: earliest arrival and latest
	// completion, scenario-relative.
	Start, End float64
	// Makespan is the full simulated span of the run, from Run until the
	// simulation drained (trailing lazy frees included) — comparable to
	// the imperative eng.Now()-based accounting.
	Makespan float64
}

// Err returns the first job error in admission order, or nil.
func (r *Report) Err() error {
	for i := range r.Jobs {
		if err := r.Jobs[i].Result.Err; err != nil {
			return fmt.Errorf("datampi: scenario job %s (%s): %w",
				r.Jobs[i].Result.Job, r.Jobs[i].Tenant, err)
		}
	}
	return nil
}

// WriteTrace writes the run's trace as Chrome trace-event JSON, loadable
// in Perfetto (ui.perfetto.dev) or chrome://tracing. It errors when the
// scenario ran without WithTracing.
func (r *Report) WriteTrace(w io.Writer) error {
	if r.Trace == nil {
		return fmt.Errorf("datampi: report has no trace; run the scenario with WithTracing")
	}
	return r.Trace.WriteChrome(w)
}

// Render formats the report as an aligned per-tenant table with the
// timeline and lifecycle counters, for CLIs and examples.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %6s %5s %6s %8s %8s %8s %9s\n",
		"tenant", "weight", "jobs", "failed", "p50(s)", "p95(s)", "mean(s)", "slotshare")
	for _, t := range r.Tenants {
		fmt.Fprintf(&b, "%-12s %6g %5d %6d %8.1f %8.1f %8.1f %8.0f%%\n",
			t.Name, t.Weight, t.Jobs, t.Failed,
			t.Response.P50, t.Response.P95, t.Response.Mean, t.SlotShare*100)
	}
	if len(r.Phases) > 0 {
		for _, t := range r.Tenants {
			ph := r.Phases[t.Name]
			if len(ph) == 0 {
				continue
			}
			keys := make([]string, 0, len(ph))
			for k := range ph {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			fmt.Fprintf(&b, "phases %s:", t.Name)
			for _, k := range keys {
				fmt.Fprintf(&b, " %s %.1fs", k, ph[k])
			}
			b.WriteString("\n")
		}
	}
	for _, te := range r.Timeline {
		fmt.Fprintf(&b, "event: t=%.0fs %s\n", te.T, te.Name)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	span := r.End - r.Start
	if span < 0 {
		span = 0 // no job recorded an end time (e.g. everything deadlocked)
	}
	fmt.Fprintf(&b, "jobs %d, span %.0fs (first arrival %.0fs, last completion %.0fs), makespan %.0fs\n",
		r.Submitted, span, r.Start, r.End, r.Makespan)
	fmt.Fprintln(&b, r.Tracker.String())
	if tp := r.Transport; tp.Transfers > 0 || tp.BytesPipelined > 0 {
		fmt.Fprintf(&b, "transport: %d transfers, %.0f MB serialized, %.0f MB copied, %.0f MB zero-copy, %.0f MB wire, overlap %.0f%%\n",
			tp.Transfers, tp.BytesSerialized/(1<<20), tp.BytesCopied/(1<<20),
			tp.BytesZeroCopied/(1<<20), tp.BytesWire/(1<<20), tp.OverlapFraction()*100)
	}
	if rc := r.Recovery; rc != (RecoveryStats{}) {
		fmt.Fprintf(&b, "recovery: %d blocks re-replicated (%.0f MB), %d blocks lost (%.0f MB), %d tasks recomputed\n",
			rc.BlocksRereplicated, rc.BytesRereplicated/(1<<20),
			rc.BlocksLost, rc.BytesLost/(1<<20), rc.TasksRecomputed)
		if rc.StaleReplicasPruned+rc.ExcessReplicasPruned+rc.RepairsCancelled+
			rc.CacheRecomputes+rc.PermanentFailures > 0 {
			fmt.Fprintf(&b, "rejoin: %d stale + %d excess replicas pruned, %d repairs cancelled, %d cache partitions recomputed, %d permanent task failures\n",
				rc.StaleReplicasPruned, rc.ExcessReplicasPruned, rc.RepairsCancelled,
				rc.CacheRecomputes, rc.PermanentFailures)
		}
	}
	return b.String()
}

// Run executes the scenario: it admits every arrival at its simulated
// time, fires the timed events, drives the shared simulation to
// completion, and assembles the report. It returns the report together
// with the first job error, if any (the report is valid either way, so
// callers can inspect partial outcomes).
func (s *Scenario) Run() (*Report, error) {
	if s.err != nil {
		return nil, s.err
	}
	if len(s.arrivals) == 0 && len(s.closed) == 0 {
		return nil, fmt.Errorf("datampi: scenario has no arrivals")
	}
	for i := range s.arrivals {
		a := &s.arrivals[i]
		if _, ok := s.byName[a.Tenant]; !ok {
			return nil, fmt.Errorf("datampi: arrival %d references undeclared tenant %q", i, a.Tenant)
		}
		if a.Job.FS == nil {
			return nil, fmt.Errorf("datampi: arrival %d (job %s) has no filesystem; build jobs with the workload constructors", i, a.Job.Name)
		}
		if a.Job.FS.Cluster() != s.tb.Cluster {
			return nil, fmt.Errorf("datampi: arrival %d (job %s) is staged on a different testbed", i, a.Job.Name)
		}
		if a.At < 0 {
			return nil, fmt.Errorf("datampi: arrival %d (job %s) has negative arrival time %v", i, a.Job.Name, a.At)
		}
	}
	for _, t := range s.tenants {
		if t.eng.Cluster() != s.tb.Cluster {
			return nil, fmt.Errorf("datampi: tenant %s's engine runs on a different testbed", t.name)
		}
	}
	for _, cl := range s.closed {
		if _, ok := s.byName[cl.tenant]; !ok {
			return nil, fmt.Errorf("datampi: ClosedLoopUsers references undeclared tenant %q", cl.tenant)
		}
	}
	for _, te := range s.events {
		if te.ev.validate == nil {
			continue
		}
		if err := te.ev.validate(s.tb); err != nil {
			return nil, err
		}
	}

	eng := s.tb.Cluster.Eng
	runStart := eng.Now()
	stale0, excess0 := s.tb.FS.PruneStats()
	var mon *dfs.ReplicationMonitor
	if s.monCfg != nil {
		// Attached before any event can fire; detached after the run so
		// repeated scenarios on one testbed do not stack monitors.
		mon = dfs.NewReplicationMonitor(s.tb.FS, *s.monCfg)
	}
	q := s.tb.NewQueue(s.policy) // carries the testbed's dead-node exclusions
	q.SetSpeculation(s.spec)
	q.SetPreemption(s.pre)
	var tr *trace.Tracer
	if s.trcCfg != nil {
		// The tracer rides the queue's tracker into every engine submit
		// and the filesystem into the replication monitor; the FS hookup
		// is scoped to this run so repeated scenarios on one testbed do
		// not cross-record.
		tr = trace.New(*s.trcCfg)
		q.SetTracer(tr)
		prevFSTr := s.tb.FS.Tracer()
		s.tb.FS.SetTracer(tr)
		defer s.tb.FS.SetTracer(prevFSTr)
	}
	rc := &runCtx{tb: s.tb, q: q, start: runStart, slow: make(map[int]float64)}

	// admitAbs admits one job at an absolute simulated time under its
	// tenant's weight — shared by the trace admissions below and by
	// closed-loop chaining mid-run.
	admitAbs := func(tenant string, at float64, j Job) *sched.Submission {
		t := s.byName[tenant]
		return q.Admit(tenant, at, t.weight, t.eng, j)
	}

	// Every completion folds into its tenant's aggregate as it happens (and
	// chains a closed-loop user's next job); WithStreamingReport decides
	// only whether a per-job row is kept beside the aggregate and whether
	// the queue forgets the job.
	type tenantAgg struct {
		jobs, failed int
		sk           metrics.Sketch
		slotSec      float64
		phases       map[string]float64
	}
	var (
		chain     = make(map[*sched.Submission]chainKey)
		aggs      = make(map[string]*tenantAgg)
		rows      map[*sched.Submission]JobReport // nil: rows folded away
		firstErr  error
		firstArr  = math.Inf(1) // min arrival, scenario-relative
		lastEnd   = 0.0         // max completion, scenario-relative
		slotTotal = 0.0
	)
	if !s.stream {
		rows = make(map[*sched.Submission]JobReport)
	}
	fold := func(sub *sched.Submission) {
		agg := aggs[sub.Tenant()]
		if agg == nil {
			agg = &tenantAgg{}
			aggs[sub.Tenant()] = agg
		}
		res := sub.Result()
		jr := JobReport{Tenant: sub.Tenant(), Arrival: sub.Arrival() - runStart, SlotSeconds: q.SlotSeconds(sub), Result: res}
		agg.jobs++
		if res.Err != nil {
			agg.failed++
			if firstErr == nil {
				name := res.Job
				if !sub.Done() {
					name = sub.Name() // never finished: the result carries only the error
				}
				firstErr = fmt.Errorf("datampi: scenario job %s (%s): %w", name, sub.Tenant(), res.Err)
			}
		} else {
			jr.Response = res.End - sub.Arrival()
			agg.sk.Add(jr.Response)
		}
		if tr != nil && len(res.Phases) > 0 {
			if agg.phases == nil {
				agg.phases = make(map[string]float64)
			}
			for k, v := range res.Phases {
				agg.phases[k] += v
			}
		}
		// Failed jobs count toward the completion horizon too, as long as
		// the engine recorded when they ended (a deadlocked job has no
		// end time and is excluded).
		if end := res.End - runStart; res.End > 0 && end > lastEnd {
			lastEnd = end
		}
		agg.slotSec += jr.SlotSeconds
		slotTotal += jr.SlotSeconds
		if rows != nil {
			rows[sub] = jr
		}
	}
	q.OnComplete(func(sub *sched.Submission) {
		if ck, ok := chain[sub]; ok {
			delete(chain, sub)
			if k := ck.k + 1; k < ck.cl.jobsPerUser {
				j := ck.cl.mk(ck.user, k)
				if j.FS == nil || j.FS.Cluster() != s.tb.Cluster {
					rc.notes = append(rc.notes, fmt.Sprintf(
						"closed-loop tenant %s user %d job %d is staged off-testbed; user's chain stopped",
						ck.cl.tenant, ck.user, k))
				} else {
					nsub := admitAbs(ck.cl.tenant, eng.Now()+ck.cl.gaps[ck.user][k], j)
					chain[nsub] = chainKey{cl: ck.cl, user: ck.user, k: k}
				}
			}
		}
		fold(sub)
	})
	q.DiscardSettled(s.stream)

	// Events due at or before the start apply now, before the first
	// admission — the imperative "perturb before Run" pattern the golden
	// compatibility pins rely on.
	events := append([]timedEvent(nil), s.events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })
	for _, te := range events {
		if te.at <= 0 {
			q.At(runStart, te.ev.name, func() { te.ev.apply(rc) })
		}
	}

	// Admissions in trace order (arrival time, declaration order on
	// ties): FIFO job priority then follows actual admission order.
	order := make([]int, len(s.arrivals))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return s.arrivals[order[i]].At < s.arrivals[order[j]].At })
	for _, ai := range order {
		a := s.arrivals[ai]
		admitAbs(a.Tenant, runStart+a.At, a.Job)
		if a.At < firstArr {
			firstArr = a.At
		}
	}

	// Closed-loop users enter after the declared trace: each user's first
	// job arrives after its initial think pause, and every completion
	// chains the next admission through the dispatcher above.
	for _, cl := range s.closed {
		for u := 0; u < cl.users; u++ {
			j := cl.mk(u, 0)
			if j.FS == nil {
				return nil, fmt.Errorf("datampi: closed-loop tenant %s user %d first job has no filesystem; build jobs with the workload constructors", cl.tenant, u)
			}
			if j.FS.Cluster() != s.tb.Cluster {
				return nil, fmt.Errorf("datampi: closed-loop tenant %s user %d first job is staged on a different testbed", cl.tenant, u)
			}
			sub := admitAbs(cl.tenant, runStart+cl.gaps[u][0], j)
			chain[sub] = chainKey{cl: cl, user: u, k: 0}
			if cl.gaps[u][0] < firstArr {
				firstArr = cl.gaps[u][0]
			}
		}
	}

	// Later events fire on the queue's timeline.
	for _, te := range events {
		if te.at > 0 {
			te := te
			q.At(runStart+te.at, te.ev.name, func() { te.ev.apply(rc) })
		}
	}

	// Staged-transport knob: switch every distinct tenant transport to
	// the requested state for the run, remembering what to restore.
	type tpState struct {
		tp      *transport.Transport
		enabled bool
		mode    transport.PipelineMode
		stats   transport.Stats
	}
	var tpPrev []tpState
	if s.tpCfg != nil {
		seenTP := make(map[*transport.Transport]bool)
		for _, t := range s.tenants {
			tr, ok := t.eng.(interface{ Transport() *transport.Transport })
			if !ok {
				continue
			}
			tp := tr.Transport()
			if tp == nil || seenTP[tp] {
				continue
			}
			seenTP[tp] = true
			tpPrev = append(tpPrev, tpState{tp: tp, enabled: tp.Enabled(), mode: tp.PipelineModeValue(), stats: tp.Stats()})
			tp.SetEnabled(s.tpCfg.Enabled)
			tp.SetPipelineMode(s.tpCfg.Pipeline)
		}
		if len(tpPrev) == 0 {
			rc.notes = append(rc.notes, "transport: no tenant engine supports the staged model")
		}
	}

	q.Run()
	makespan := eng.Now() - runStart

	// Restore prior transport state and fold this run's counter deltas.
	var tpDelta transport.Stats
	for _, st := range tpPrev {
		d := st.tp.Stats().Sub(st.stats)
		tpDelta.Transfers += d.Transfers
		tpDelta.BytesSerialized += d.BytesSerialized
		tpDelta.BytesCopied += d.BytesCopied
		tpDelta.BytesZeroCopied += d.BytesZeroCopied
		tpDelta.BytesWire += d.BytesWire
		tpDelta.BytesPipelined += d.BytesPipelined
		tpDelta.BytesOverlapped += d.BytesOverlapped
		st.tp.SetEnabled(st.enabled)
		st.tp.SetPipelineMode(st.mode)
	}

	rep := &Report{Tracker: q.TrackerStats(), Makespan: makespan, Notes: rc.notes, Submitted: q.Admitted(), Transport: tpDelta, Trace: tr}
	if tr != nil {
		rep.Phases = make(map[string]map[string]float64)
	}
	rep.Recovery.TasksRecomputed = rep.Tracker.Recomputes
	rep.Recovery.CacheRecomputes = rep.Tracker.CacheRecomputes
	rep.Recovery.PermanentFailures = rep.Tracker.PermanentFails
	stale1, excess1 := s.tb.FS.PruneStats()
	rep.Recovery.StaleReplicasPruned = stale1 - stale0
	rep.Recovery.ExcessReplicasPruned = excess1 - excess0
	if mon != nil {
		mon.Stop()
		ms := mon.Stats()
		rep.Recovery.BlocksRereplicated = ms.BlocksRereplicated
		rep.Recovery.BytesRereplicated = ms.BytesRereplicated
		rep.Recovery.BlocksLost = ms.BlocksLost
		rep.Recovery.BytesLost = ms.BytesLost
		rep.Recovery.RepairsCancelled = ms.RepairsCancelled
	}
	for _, te := range q.Timeline() {
		rep.Timeline = append(rep.Timeline, TimelineEntry{T: te.T - runStart, Name: te.Name})
	}

	// Jobs that never finished (a simulation deadlock) are still live and
	// unfolded; the rows, when kept, go out in admission order.
	for _, sub := range q.Submissions() {
		if !sub.Done() {
			fold(sub)
		}
		if rows != nil {
			rep.Jobs = append(rep.Jobs, rows[sub])
		}
	}
	for _, t := range s.tenants {
		trep := TenantReport{Name: t.name, Weight: t.weight}
		if agg := aggs[t.name]; agg != nil {
			trep.Response = agg.sk.Dist()
			trep.Jobs = agg.jobs
			trep.Failed = agg.failed
			trep.SlotSeconds = agg.slotSec
			if len(agg.phases) > 0 {
				rep.Phases[t.name] = agg.phases
			}
		}
		if slotTotal > 0 {
			trep.SlotShare = trep.SlotSeconds / slotTotal
		}
		rep.Tenants = append(rep.Tenants, trep)
	}
	if !math.IsInf(firstArr, 1) {
		rep.Start = firstArr
	}
	rep.End = lastEnd
	return rep, firstErr
}
