package main

// surface.go is the benchmark's whole surface on the repository: every
// package of the module the benchmark imports is imported here and only
// here, and every exported function or constructor it calls is bound
// below. The other files use these names plus the methods of the values
// they return (README.md lists those). Nothing ROADMAP.md marks for
// deletion is bound: no sim.FidelityReference, kv.SetBatching, RunAll,
// Result.Phases or CPUPerByte* alias.

import (
	datampi "github.com/datampi/datampi-go"
	"github.com/datampi/datampi-go/internal/bdb"
	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/harness"
	"github.com/datampi/datampi-go/internal/job"
	"github.com/datampi/datampi-go/internal/kv"
	"github.com/datampi/datampi-go/internal/metrics"
	"github.com/datampi/datampi-go/internal/sched"
	"github.com/datampi/datampi-go/internal/sim"
	"github.com/datampi/datampi-go/internal/trace"
	"github.com/datampi/datampi-go/internal/transport"
)

type (
	// harness: one isolated cluster + DFS + engine per measurement.
	framework = harness.Framework
	rig       = harness.Rig
	rigConfig = harness.RigConfig

	// job and kv: the engine-agnostic job description and its records.
	spec            = job.Spec
	result          = job.Result
	jobEngine       = job.Engine
	emitFunc        = job.Emit
	pair            = kv.Pair
	hashPartitioner = kv.HashPartitioner

	// bdb: the application pipelines' results.
	kmeansResult = bdb.KMeansResult
	nbResult     = bdb.NBResult

	// cluster, dfs, sim: the simulated testbed and its kernel.
	simCluster   = cluster.Cluster
	dfsFile      = dfs.File
	dfsConfig    = dfs.Config
	simEngine    = sim.Engine
	simProc      = sim.Proc
	simWaitGroup = sim.WaitGroup

	// sched: the queue, the tracker and what a stub engine needs.
	queue             = sched.Queue
	submission        = sched.Submission
	jobControl        = sched.JobControl
	taskSpec          = sched.TaskSpec
	attempt           = sched.Attempt
	trackerStats      = sched.TrackerStats
	speculationConfig = sched.SpeculationConfig
	preemptionConfig  = sched.PreemptionConfig

	// trace, transport, metrics.
	tracer         = trace.Tracer
	traceConfig    = trace.Config
	traceSeg       = trace.Seg
	transportStats = transport.Stats
	sketch         = metrics.Sketch

	// the public Scenario API.
	scenarioOption  = datampi.ScenarioOption
	scenarioReport  = datampi.Report
	transportConfig = datampi.TransportConfig
)

const (
	hadoop    = harness.Hadoop
	spark     = harness.Spark
	datampiFW = harness.DataMPI

	mbBytes = cluster.MB
	gbBytes = cluster.GB

	formatText    = job.Text
	formatSeqGzip = job.SeqGzip

	fair         = sched.Fair
	fidelityFast = sim.FidelityFast
	pipelineOn   = datampi.PipelineOn
)

var (
	// harness
	newRig = harness.NewRig

	// bdb: generators, job descriptions, application pipelines and their
	// sequential references
	ldaWiki1W           = bdb.LDAWiki1W
	generateTextFile    = bdb.GenerateTextFile
	generateVectorFile  = bdb.GenerateVectorFile
	generateLabeledDocs = bdb.GenerateLabeledDocs
	toSeqFile           = bdb.ToSeqFile
	normalSortSpec      = bdb.NormalSortSpec
	textSortSpec        = bdb.TextSortSpec
	wordCountSpec       = bdb.WordCountSpec
	grepSpec            = bdb.GrepSpec
	kmeansMR            = bdb.KMeansMR
	kmeansSpark         = bdb.KMeansSpark
	kmeansDataMPI       = bdb.KMeansDataMPI
	initialCentroids    = bdb.InitialCentroids
	kmeansReference     = bdb.KMeansReference
	naiveBayesTrain     = bdb.NaiveBayesTrain
	nbTermFreqSpec      = bdb.NBTermFreqSpec
	nbLabelTermSpec     = bdb.NBLabelTermSpec
	nbLabelCountSpec    = bdb.NBLabelCountSpec
	parseSparseVec      = bdb.ParseSparseVec

	// job: record decoding, output parsing, the sequential oracle
	jobRecords     = job.Records
	readTextOutput = job.ReadTextOutput
	runSequential  = job.RunSequential

	// kv
	sortPairs             = kv.SortPairs
	mergeRuns             = kv.MergeRuns
	combineSorted         = kv.CombineSorted
	sumCombiner           = kv.SumCombiner
	encodeAll             = kv.EncodeAll
	decodeAll             = kv.DecodeAll
	newPartitionCollector = kv.NewPartitionCollector

	// cluster, dfs, sim
	defaultHardware = cluster.DefaultHardware
	newCluster      = cluster.NewWith
	newDFS          = dfs.New
	newSimEngine    = sim.NewEngine
	newPSResource   = sim.NewPSResource
	newFabric       = sim.NewFabric

	// sched
	newQueue    = sched.NewQueue
	soloControl = sched.Solo

	// trace, transport
	newTracer       = trace.New
	categorySeconds = trace.CategorySeconds
	newTransport    = transport.New
	datampiProfile  = transport.DataMPIProfile

	// the public Scenario API and the baseline engine constructors
	newScenario         = datampi.NewScenario
	newHadoop           = datampi.NewHadoop
	newSpark            = datampi.NewSpark
	tenant              = datampi.Tenant
	arrive              = datampi.Arrive
	poissonArrivals     = datampi.PoissonArrivals
	closedLoopUsers     = datampi.ClosedLoopUsers
	at                  = datampi.At
	slowNode            = datampi.SlowNode
	restoreNode         = datampi.RestoreNode
	withPolicy          = datampi.WithPolicy
	withSpeculation     = datampi.WithSpeculation
	withPreemption      = datampi.WithPreemption
	withStreamingReport = datampi.WithStreamingReport
	withTransport       = datampi.WithTransport
	withTracing         = datampi.WithTracing
)
