// Package dfs implements an HDFS-like distributed filesystem on the
// simulated cluster: a NameNode holding block metadata, DataNodes storing
// replicated blocks on the simulated disks, pipelined replicated writes,
// and locality-aware reads.
//
// Every framework in this repository (MapReduce, RDD engine, DataMPI) reads
// its job input from and writes its output to this filesystem, exactly as
// the paper's systems all sit on HDFS. Block size and replication factor
// are configurable — Figure 2(a)'s DFSIO block-size tuning sweeps them.
//
// Data is stored at "actual" size while resource charging uses "nominal"
// bytes (actual × Scale).
package dfs

import (
	"fmt"
	"hash/maphash"
	"math/rand"
	"sort"
	"sync/atomic"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/metrics"
	"github.com/datampi/datampi-go/internal/sim"
	"github.com/datampi/datampi-go/internal/trace"
)

// Config controls filesystem geometry.
type Config struct {
	BlockSize   float64 // nominal bytes per block (e.g. 256 MB)
	Replication int     // replicas per block (the paper uses 3)
	Scale       float64 // nominal bytes per actual byte (>= 1)
	Seed        int64   // placement randomness seed
	// PerBlockOverhead is the fixed simulated cost (seconds) of allocating
	// a block and establishing the replication pipeline: NameNode RPCs,
	// pipeline setup, and block commit. It is what makes small blocks slow
	// in the Figure 2(a) sweep.
	PerBlockOverhead float64
}

// DefaultConfig mirrors the paper's chosen parameters: 256 MB blocks with
// 3 replicas.
func DefaultConfig() Config {
	return Config{
		BlockSize:        256 * cluster.MB,
		Replication:      3,
		Scale:            1,
		Seed:             1,
		PerBlockOverhead: 0.6,
	}
}

// Block is one replicated block of a file.
//
// Gen is the block's generation stamp, bumped each time the replication
// monitor re-replicates it while a holder is dead — HDFS's genstamp
// mechanism. LocGens records the stamp each location last registered
// at; a location with LocGens[i] < Gen is a stale replica left behind
// on a node that was down while the block was repaired, and is pruned
// when that node rejoins. LocGens is nil until the first repair: nil
// means every location is at the current generation.
type Block struct {
	ID        int64
	Data      []byte  // actual bytes
	Nominal   float64 // nominal bytes (Data length × Scale)
	Locations []int   // nodes holding replicas, primary first
	Gen       int64   // generation stamp
	LocGens   []int64 // per-location stamps; nil = all current
	hash      atomic.Uint64
}

var contentSeed = maphash.MakeSeed()

// ContentHash returns a hash of the block's bytes (a maphash with a seed
// of the process), computed on its first call and kept, since a block's
// Data never changes: jobs that read one block again and again hash it
// once.
func (b *Block) ContentHash() uint64 {
	if h := b.hash.Load(); h != 0 {
		return h
	}
	h := maphash.Bytes(contentSeed, b.Data) | 1 // 0 marks "not yet"
	b.hash.Store(h)
	return h
}

// ensureGens materializes LocGens at the block's current generation.
func (b *Block) ensureGens() {
	if b.LocGens == nil {
		b.LocGens = make([]int64, len(b.Locations))
		for i := range b.LocGens {
			b.LocGens[i] = b.Gen
		}
	}
}

// locGen returns the generation stamp of location index i. Locations
// beyond the stamped range (widened by hand in tests) count as current.
func (b *Block) locGen(i int) int64 {
	if b.LocGens == nil || i >= len(b.LocGens) {
		return b.Gen
	}
	return b.LocGens[i]
}

// File is an immutable, fully-written file.
type File struct {
	Name    string
	Blocks  []*Block
	Nominal float64 // total nominal bytes
}

// FS is the filesystem.
type FS struct {
	c       *cluster.Cluster
	cfg     Config
	files   map[string]*File
	nextID  int64
	rng     *rand.Rand
	dead    map[int]bool
	prof    *metrics.Profiler
	tr      *trace.Tracer // span/instant recorder, nil when tracing is off
	diskUse []float64     // nominal bytes stored per node

	// nodeSubs are notified (in subscription order, kernel context) when a
	// datanode goes down or comes back — the heartbeat stream the
	// replication monitor listens to. Unsubscribed slots are nil.
	nodeSubs []func(node int, down bool)

	// Cumulative rejoin-reconciliation counters (see NodeUp): stale
	// replicas invalidated on rejoining nodes, and excess live replicas
	// trimmed from over-replicated blocks.
	stalePruned  int
	excessPruned int
}

// New creates an empty filesystem on the cluster.
func New(c *cluster.Cluster, cfg Config) *FS {
	if cfg.Replication <= 0 {
		cfg.Replication = 3
	}
	if cfg.Replication > c.N() {
		cfg.Replication = c.N()
	}
	if cfg.Scale < 1 {
		cfg.Scale = 1
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = 256 * cluster.MB
	}
	return &FS{
		c:       c,
		cfg:     cfg,
		files:   make(map[string]*File),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		dead:    make(map[int]bool),
		diskUse: make([]float64, c.N()),
	}
}

// SetProfiler attributes disk traffic to a metrics profiler.
func (fs *FS) SetProfiler(p *metrics.Profiler) { fs.prof = p }

// SetTracer attaches a span recorder; the replication monitor reads it
// through Tracer. Tracing is pure observation and never changes timings.
func (fs *FS) SetTracer(tr *trace.Tracer) { fs.tr = tr }

// Tracer returns the attached recorder (nil when tracing is off).
func (fs *FS) Tracer() *trace.Tracer { return fs.tr }

// Config returns the filesystem configuration.
func (fs *FS) Config() Config { return fs.cfg }

// Cluster returns the underlying cluster.
func (fs *FS) Cluster() *cluster.Cluster { return fs.c }

// actualBlockSize is the stored bytes per block under scaling.
func (fs *FS) actualBlockSize() int {
	abs := int(fs.cfg.BlockSize / fs.cfg.Scale)
	if abs < 1 {
		abs = 1
	}
	return abs
}

// placeReplicas picks replica nodes for a new block: primary on the writer
// (HDFS's write-locality rule) and the rest sampled without replacement.
// On a multi-rack topology the HDFS rack rule applies: the second replica
// lands in a different rack than the first and the third in the second
// replica's rack, so any block with replication >= 2 spans >= 2 racks and
// survives a whole-rack failure. A single rack (the paper's testbed)
// keeps the original flat sampling bit for bit.
func (fs *FS) placeReplicas(writer int) []int {
	n := fs.c.N()
	locs := make([]int, 0, fs.cfg.Replication)
	alive := func(i int) bool { return !fs.dead[i] }
	if writer >= 0 && writer < n && alive(writer) {
		locs = append(locs, writer)
	}
	perm := fs.rng.Perm(n)
	taken := func(cand int) bool {
		for _, l := range locs {
			if l == cand {
				return true
			}
		}
		return false
	}
	if fs.c.Racks() > 1 {
		// pick appends the first permuted live non-duplicate candidate
		// satisfying ok; with a nil ok any candidate qualifies.
		pick := func(ok func(cand int) bool) bool {
			for _, cand := range perm {
				if !alive(cand) || taken(cand) {
					continue
				}
				if ok != nil && !ok(cand) {
					continue
				}
				locs = append(locs, cand)
				return true
			}
			return false
		}
		if len(locs) == 0 {
			pick(nil)
		}
		if len(locs) == 1 && fs.cfg.Replication >= 2 {
			first := fs.c.RackOf(locs[0])
			if !pick(func(cand int) bool { return fs.c.RackOf(cand) != first }) {
				pick(nil) // degraded: only one rack has live nodes
			}
		}
		if len(locs) == 2 && fs.cfg.Replication >= 3 {
			second := fs.c.RackOf(locs[1])
			if !pick(func(cand int) bool { return fs.c.RackOf(cand) == second }) {
				pick(nil)
			}
		}
	}
	for _, cand := range perm {
		if len(locs) == fs.cfg.Replication {
			break
		}
		if !alive(cand) || taken(cand) {
			continue
		}
		locs = append(locs, cand)
	}
	return locs
}

// NodeDown marks a node dead: it stops serving replicas and receives no new
// ones. Subscribers (the replication monitor) are notified. Marking an
// already-dead node again is a no-op and notifies nobody.
func (fs *FS) NodeDown(i int) {
	if fs.dead[i] {
		return
	}
	fs.dead[i] = true
	for _, fn := range fs.nodeSubs {
		if fn != nil {
			fn(i, true)
		}
	}
}

// NodeUp revives a node and reconciles its replicas against the namenode
// metadata, the block-report handshake a rejoining HDFS datanode goes
// through. Replicas whose generation stamp fell behind the block's (the
// block was re-replicated while the node was down) are stale and pruned
// from the rejoining node; blocks left with more live replicas than the
// replication factor are trimmed back deterministically (highest node
// index dropped first, so the lowest index is retained last). Both prune
// counts accumulate into the Fsck report. Subscribers are notified after
// reconciliation, so the replication monitor sees the reconciled state
// and can cancel queued repairs the rejoin made unnecessary.
func (fs *FS) NodeUp(i int) {
	if !fs.dead[i] {
		return
	}
	delete(fs.dead, i)
	stale, excess := fs.stalePruned, fs.excessPruned
	fs.reconcile(i)
	if fs.tr != nil {
		fs.tr.Instant("dfs-reconcile", "dfs", i, fs.c.Eng.Now(),
			trace.Arg{Key: "stale", Val: fmt.Sprintf("%d", fs.stalePruned-stale)},
			trace.Arg{Key: "excess", Val: fmt.Sprintf("%d", fs.excessPruned-excess)})
	}
	for _, fn := range fs.nodeSubs {
		if fn != nil {
			fn(i, false)
		}
	}
}

// reconcile processes rejoining node i's block report: prune stale
// replicas on i, then trim any over-replication its return created.
func (fs *FS) reconcile(node int) {
	for _, name := range fs.List() {
		for _, b := range fs.files[name].Blocks {
			for idx := 0; idx < len(b.Locations); idx++ {
				if b.Locations[idx] != node || b.locGen(idx) >= b.Gen {
					continue
				}
				fs.dropLocation(b, idx)
				fs.stalePruned++
				idx--
			}
			fs.pruneExcess(b)
		}
	}
}

// dropLocation removes location index idx from b, releasing its disk use.
func (fs *FS) dropLocation(b *Block, idx int) {
	fs.diskUse[b.Locations[idx]] -= b.Nominal
	b.Locations = append(b.Locations[:idx], b.Locations[idx+1:]...)
	if b.LocGens != nil {
		b.LocGens = append(b.LocGens[:idx], b.LocGens[idx+1:]...)
	}
}

// pruneExcess trims live replicas of b beyond the replication factor,
// dropping the highest-indexed live node first so the lowest node index
// is retained last. Returns the number of replicas pruned.
func (fs *FS) pruneExcess(b *Block) int {
	pruned := 0
	for {
		live, victim := 0, -1
		for idx, loc := range b.Locations {
			if fs.dead[loc] {
				continue
			}
			live++
			if victim < 0 || loc > b.Locations[victim] {
				victim = idx
			}
		}
		if live <= fs.cfg.Replication || victim < 0 {
			return pruned
		}
		fs.dropLocation(b, victim)
		fs.excessPruned++
		pruned++
	}
}

// PruneStats returns the cumulative rejoin-reconciliation counters:
// stale replicas invalidated on rejoining nodes and excess replicas
// trimmed from over-replicated blocks.
func (fs *FS) PruneStats() (stale, excess int) { return fs.stalePruned, fs.excessPruned }

// NodeAlive reports whether datanode i is serving.
func (fs *FS) NodeAlive(i int) bool { return !fs.dead[i] }

// OnNodeEvent subscribes fn to datanode up/down transitions. fn runs in
// kernel context at the transition; it must not block. The returned
// function unsubscribes it.
func (fs *FS) OnNodeEvent(fn func(node int, down bool)) (unsubscribe func()) {
	fs.nodeSubs = append(fs.nodeSubs, fn)
	i := len(fs.nodeSubs) - 1
	return func() { fs.nodeSubs[i] = nil }
}

// Exists reports whether a file exists.
func (fs *FS) Exists(name string) bool {
	_, ok := fs.files[name]
	return ok
}

// Open returns a file's metadata.
func (fs *FS) Open(name string) (*File, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("dfs: open %s: no such file", name)
	}
	return f, nil
}

// Delete removes a file, releasing its simulated disk usage.
func (fs *FS) Delete(name string) {
	f, ok := fs.files[name]
	if !ok {
		return
	}
	for _, b := range f.Blocks {
		for _, loc := range b.Locations {
			fs.diskUse[loc] -= b.Nominal
		}
	}
	delete(fs.files, name)
}

// ListPrefix returns the files whose names start with prefix, sorted by
// name — how callers read a job's "directory" of part files.
func (fs *FS) ListPrefix(prefix string) []*File {
	var names []string
	for n := range fs.files {
		if len(n) >= len(prefix) && n[:len(prefix)] == prefix {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	out := make([]*File, 0, len(names))
	for _, n := range names {
		out = append(out, fs.files[n])
	}
	return out
}

// List returns file names in sorted order.
func (fs *FS) List() []string {
	names := make([]string, 0, len(fs.files))
	for n := range fs.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DiskUsed returns nominal bytes stored on node i.
func (fs *FS) DiskUsed(i int) float64 { return fs.diskUse[i] }

// Preload installs a file without simulating any time, the way benchmark
// inputs are staged before the timed region (the paper generates inputs
// with BigDataBench tools outside the measured window).
func (fs *FS) Preload(name string, data []byte) *File {
	abs := fs.actualBlockSize()
	var parts [][]byte
	for off := 0; off < len(data); off += abs {
		end := min(off+abs, len(data))
		parts = append(parts, data[off:end:end])
	}
	return fs.PreloadParts(name, parts)
}

// PreloadAligned installs a file like Preload but only splits blocks at
// the separator byte, so no record straddles a block boundary — the
// logical behaviour of Hadoop's LineRecordReader, which assembles whole
// records across block edges before handing them to the mapper. Both
// clip each block's capacity to its length: an append through one block
// never writes into the next, which other FSes may share (bdb's staging
// store hands one generated buffer to every FS that stages it).
func (fs *FS) PreloadAligned(name string, data []byte, sep byte) *File {
	abs := fs.actualBlockSize()
	var parts [][]byte
	for len(data) > 0 {
		if len(data) <= abs {
			parts = append(parts, data[:len(data):len(data)])
			break
		}
		cut := abs
		for cut < len(data) && data[cut-1] != sep {
			cut++
		}
		parts = append(parts, data[:cut:cut])
		data = data[cut:]
	}
	return fs.PreloadParts(name, parts)
}

// PreloadParts installs a file from pre-split parts, one block per part,
// ignoring BlockSize. Used when a generator wants exact split boundaries.
// A file already staged under the name is deleted first, so its blocks
// leave the disk accounting.
func (fs *FS) PreloadParts(name string, parts [][]byte) *File {
	fs.Delete(name)
	f := &File{Name: name}
	for _, part := range parts {
		// Primaries rotate round-robin over nodes, modeling a file written
		// from many clients.
		blk := &Block{
			ID:        fs.nextID,
			Data:      part,
			Nominal:   float64(len(part)) * fs.cfg.Scale,
			Locations: fs.placeReplicas(int(fs.nextID) % fs.c.N()),
		}
		fs.nextID++
		for _, loc := range blk.Locations {
			fs.diskUse[loc] += blk.Nominal
		}
		f.Blocks = append(f.Blocks, blk)
		f.Nominal += blk.Nominal
	}
	fs.files[name] = f
	return f
}

// ReadBlock reads a block from reader's point of view, charging disk at the
// chosen replica and network if remote, overlapped as a streaming read.
// It returns the block's actual bytes.
func (fs *FS) ReadBlock(p *sim.Proc, b *Block, reader int) ([]byte, error) {
	var wg sim.WaitGroup
	if err := fs.StartRead(b, reader, &wg); err != nil {
		return nil, err
	}
	p.BlockReason = "disk"
	wg.Wait(p)
	return b.Data, nil
}

// StartRead charges the I/O of reading block b from reader asynchronously,
// adding completions to wg. Engines that pipeline compute with input reads
// use this together with direct access to b.Data.
func (fs *FS) StartRead(b *Block, reader int, wg *sim.WaitGroup) error {
	loc, local := fs.pickReplica(b, reader)
	if loc < 0 {
		return fmt.Errorf("dfs: block %d: all replicas unavailable", b.ID)
	}
	wg.Add(1)
	fs.c.Node(loc).Disk.Start(b.Nominal, wg.Done)
	if !local {
		wg.Add(1)
		fs.c.Net.StartFlow(loc, reader, b.Nominal, wg.Done)
	}
	if fs.prof != nil {
		fs.prof.AddDiskRead(loc, b.Nominal)
	}
	return nil
}

// pickReplica chooses the replica to read: local if present, else the first
// live replica (deterministic).
func (fs *FS) pickReplica(b *Block, reader int) (loc int, local bool) {
	for _, l := range b.Locations {
		if l == reader && !fs.dead[l] {
			return l, true
		}
	}
	for _, l := range b.Locations {
		if !fs.dead[l] {
			return l, false
		}
	}
	return -1, false
}

// IsLocal reports whether reader holds a live replica of b.
func (fs *FS) IsLocal(b *Block, reader int) bool {
	loc, local := fs.pickReplica(b, reader)
	return loc >= 0 && local
}

// Writer streams a new file into the filesystem with an HDFS-style
// replication pipeline, charging simulated time as blocks fill.
type Writer struct {
	fs     *FS
	f      *File
	client int
	scale  float64 // nominal bytes per actual byte for this file
	buf    []byte
	closed bool
}

// Create opens a writer for a new file written from the given client node.
func (fs *FS) Create(name string, client int) *Writer {
	return fs.CreateScaled(name, client, fs.cfg.Scale)
}

// CreateScaled opens a writer whose contents are charged at a custom
// nominal scale. Jobs with cardinality-bound (saturating) outputs write
// them at scale 1: their true size does not grow with the scaled input.
func (fs *FS) CreateScaled(name string, client int, scale float64) *Writer {
	if scale < 1 {
		scale = 1
	}
	fs.Delete(name) // an overwritten file gives its blocks back
	f := &File{Name: name}
	fs.files[name] = f
	return &Writer{fs: fs, f: f, client: client, scale: scale}
}

// Write appends data, flushing full blocks through the replication
// pipeline. It blocks the proc for the simulated transfer time.
//
// The file keeps data, as Preload does: full blocks are sub-slices of it
// and so is a trailing partial block until a later Write tops it up (that
// copies the partial block, once, and never writes into data's array).
// The caller must not modify data after passing it.
func (w *Writer) Write(p *sim.Proc, data []byte) error {
	if w.closed {
		return fmt.Errorf("dfs: write to closed writer for %s", w.f.Name)
	}
	abs := w.fs.actualBlockSize()
	if len(w.buf) > 0 {
		n := min(abs-len(w.buf), len(data))
		w.buf = append(w.buf, data[:n]...)
		data = data[n:]
		if len(w.buf) < abs {
			return nil
		}
		if err := w.flushBlock(p, w.buf); err != nil {
			return err
		}
		w.buf = nil
	}
	for ; len(data) >= abs; data = data[abs:] {
		if err := w.flushBlock(p, data[:abs:abs]); err != nil {
			return err
		}
	}
	if len(data) > 0 {
		w.buf = data[:len(data):len(data)]
	}
	return nil
}

// Close flushes the final partial block and seals the file.
func (w *Writer) Close(p *sim.Proc) error {
	if w.closed {
		return nil
	}
	w.closed = true
	if len(w.buf) > 0 {
		if err := w.flushBlock(p, w.buf); err != nil {
			return err
		}
		w.buf = nil
	}
	return nil
}

// flushBlock runs the replication pipeline for one block: the client writes
// the primary replica to its local disk while streaming to the second
// datanode, which streams to the third; disk writes and network hops are
// overlapped as in HDFS packet pipelining. The block keeps data.
func (w *Writer) flushBlock(p *sim.Proc, data []byte) error {
	fs := w.fs
	blk := &Block{
		ID:        fs.nextID,
		Data:      data,
		Nominal:   float64(len(data)) * w.scale,
		Locations: fs.placeReplicas(w.client),
	}
	fs.nextID++
	if len(blk.Locations) == 0 {
		return fmt.Errorf("dfs: no live datanodes for block of %s", w.f.Name)
	}
	// Pipeline setup and commit overhead.
	if fs.cfg.PerBlockOverhead > 0 {
		p.Sleep(fs.cfg.PerBlockOverhead)
	}
	var wg sim.WaitGroup
	prev := w.client
	for i, loc := range blk.Locations {
		wg.Add(1)
		fs.c.Node(loc).Disk.Start(blk.Nominal, wg.Done)
		if fs.prof != nil {
			fs.prof.AddDiskWrite(loc, blk.Nominal)
		}
		if i > 0 || loc != w.client {
			wg.Add(1)
			fs.c.Net.StartFlow(prev, loc, blk.Nominal, wg.Done)
		}
		prev = loc
	}
	p.BlockReason = "disk"
	wg.Wait(p)
	for _, loc := range blk.Locations {
		fs.diskUse[loc] += blk.Nominal
	}
	w.f.Blocks = append(w.f.Blocks, blk)
	w.f.Nominal += blk.Nominal
	return nil
}

// CommitAttempt atomically renames a completed attempt's temp file to its
// final name — the namenode metadata operation behind the task output
// commit protocol (write to an attempt-scoped path, rename on success).
// It charges no simulated time (a single metadata RPC) and fails when the
// temp file does not exist or the final name is already taken, so a task
// output can only ever be committed once.
func (fs *FS) CommitAttempt(temp, final string) error {
	f, ok := fs.files[temp]
	if !ok {
		return fmt.Errorf("dfs: commit %s: no such attempt file", temp)
	}
	if _, taken := fs.files[final]; taken {
		return fmt.Errorf("dfs: commit %s: destination %s already exists", temp, final)
	}
	delete(fs.files, temp)
	f.Name = final
	fs.files[final] = f
	return nil
}

// ReadAll reads every block of a file from the reader node, concatenated.
// Intended for tests and small files.
func (fs *FS) ReadAll(p *sim.Proc, name string, reader int) ([]byte, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	var out []byte
	for _, b := range f.Blocks {
		data, err := fs.ReadBlock(p, b, reader)
		if err != nil {
			return nil, err
		}
		out = append(out, data...)
	}
	return out, nil
}
