package taskrt

import (
	"encoding/binary"
	"sync"

	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/kv"
)

// recordTable is an engine's shared record work: the map-side results of
// the jobs whose spec has a fingerprint (job.Spec.Fingerprint), one per
// (block, fingerprint, shape), and the reduce tails (Base.ReduceTail)
// over the map results it holds. Jobs that repeat a query over the same
// data ask for the same key again and again; the table computes each key
// once and hands the result to every later caller, who must treat it as
// immutable. Simulated charges never depend on it: every caller charges
// its task in full. An entry two jobs asked for lives as long as the
// engine; see join.
type recordTable struct {
	mu      sync.Mutex
	settled sync.Cond           // an entry in flight settled; L is &mu
	shapes  map[shapeKey]uint32 // every shape asked for, numbered from 0
	maps    map[mapKey]any      // *mapEntry[T]
	// runs identifies the partitions of the kept entries by their
	// first pair: the table holds them for good, so no other live run can
	// start at the same address.
	runs  map[*kv.Pair]runRef
	tails map[string]tail
	ids   uint32 // the last id handed to a registered entry
	key   []byte // scratch for a reduce tail's key; mu held
}

func newRecordTable() *recordTable {
	t := &recordTable{}
	t.settled.L = &t.mu
	return t
}

// shapeKey is what a map-side result depends on besides its block: the
// spec's record functions, which the fingerprint names, and how the
// output is partitioned and sized.
type shapeKey struct {
	fingerprint               string
	parts                     int
	sortBuf, scale, emitScale float64
}

// mapKey is one block under one numbered shape: a small key keeps the
// map's growth, which a job that shares nothing pays per task, small.
type mapKey struct {
	blk   *dfs.Block
	shape uint32
}

// shape returns s's number.
func (t *recordTable) shape(s shapeKey) uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.shapes[s]
	if !ok {
		if t.shapes == nil {
			t.shapes = map[shapeKey]uint32{}
		}
		id = uint32(len(t.shapes))
		t.shapes[s] = id
	}
	return id
}

type mapEntry[T any] struct {
	key   mapKey
	val   T
	state entryState
	jobs  int    // the jobs that asked for it and have not ended
	kept  bool   // a second job asked for it: it lives as long as the engine
	id    uint32 // nonzero once val's partitions are in runs
}

type entryState uint8

const (
	idle     entryState = iota // nobody computed it yet, or a computation panicked
	inFlight                   // a caller is computing it
	done                       // val is set
)

// join enters one job's interest in blocks under shape and returns their
// entries, made idle for the blocks nobody asked for yet. An entry a
// second job asks for while the first still runs is kept for the
// engine's life; one only its own job asked for goes when that job ends
// and nobody computes it (see drop), so a job that shares nothing keeps
// nothing.
func join[T any](t *recordTable, shape uint32, blocks []*dfs.Block) []*mapEntry[T] {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.maps == nil {
		t.maps = map[mapKey]any{}
	}
	es := make([]*mapEntry[T], len(blocks))
	for i, blk := range blocks {
		k := mapKey{blk, shape}
		e, ok := t.maps[k].(*mapEntry[T])
		if !ok {
			e = &mapEntry[T]{key: k}
			t.maps[k] = e
		}
		if e.jobs++; e.jobs > 1 {
			e.kept = true
			e.publish(t)
		}
		es[i] = e
	}
	return es
}

// leave ends the interest join entered.
func leave[T any](t *recordTable, es []*mapEntry[T]) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range es {
		e.jobs--
		e.drop(t)
	}
}

// drop deletes e from the table once no running job asked for it, none
// kept it and no caller computes it, so that a job joining later starts
// afresh while a computation in flight stays the only one. t.mu is held.
func (e *mapEntry[T]) drop(t *recordTable) {
	if e.jobs == 0 && !e.kept && e.state != inFlight && t.maps[e.key] == any(e) {
		delete(t.maps, e.key)
	}
}

// share returns e's value, computing it as work(i) on the caller when
// nobody has. One computation per entry is in flight at a time; a second
// caller waits for it. A work that panics leaves the entry idle, so the
// next caller computes afresh.
func share[T any](t *recordTable, e *mapEntry[T], work func(i int) T, i int) T {
	t.mu.Lock()
	for e.state == inFlight {
		t.settled.Wait()
	}
	if e.state == done {
		t.mu.Unlock()
		return e.val
	}
	e.state = inFlight
	t.mu.Unlock()
	computed := false
	defer func() {
		if !computed { // work panicked
			t.mu.Lock()
			e.state = idle
			e.drop(t)
			t.settled.Broadcast()
			t.mu.Unlock()
		}
	}()
	v := work(i)
	computed = true
	t.mu.Lock()
	e.val, e.state = v, done
	e.publish(t)
	e.drop(t)
	t.settled.Broadcast()
	t.mu.Unlock()
	return v
}

// partitioned is a map-side result's sized output: Mapped's, or that of
// an engine's own result type embedding Partitioned (empty on failure).
func (p *Partitioned) partitioned() *Partitioned { return p }
func (m *Mapped) partitioned() *Partitioned      { return &m.Out }

// publish gives a kept entry that carries partitions an id once it is
// done and records its non-empty partitions in runs. t.mu is held.
func (e *mapEntry[T]) publish(t *recordTable) {
	if e.state != done || !e.kept || e.id != 0 {
		return
	}
	m, ok := any(&e.val).(interface{ partitioned() *Partitioned })
	if !ok {
		return
	}
	if t.runs == nil {
		t.runs = map[*kv.Pair]runRef{}
	}
	t.ids++
	e.id = t.ids
	for pi, part := range m.partitioned().Parts {
		if len(part) > 0 {
			t.runs[&part[0]] = runRef{id: e.id, pi: uint32(pi), n: len(part)}
		}
	}
}

// runRef is one registered partition: its entry's id, its index and its
// length.
type runRef struct {
	id, pi uint32
	n      int
}

// tail is one reduce task's output text and record count.
type tail struct {
	text    []byte
	records int
}

// lookupTail finds the reduce tail of a spec with fingerprint fp over
// runs, encoded into text or not. found reports a stored one. Otherwise a
// non-empty key means every run is a registered partition — an empty one
// stands for itself — and the caller stores its own tail under key;
// an empty key means some run was built outside the table, and nothing
// is stored.
func (t *recordTable) lookupTail(fp string, encode bool, runs [][]kv.Pair) (tl tail, found bool, key string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := binary.AppendUvarint(t.key[:0], uint64(len(fp)))
	k = append(k, fp...)
	if encode {
		k = append(k, 1)
	} else {
		k = append(k, 0)
	}
	for _, r := range runs {
		if len(r) == 0 {
			k = append(k, 0)
			continue
		}
		ref, ok := t.runs[&r[0]]
		if !ok || ref.n != len(r) {
			t.key = k
			return tail{}, false, ""
		}
		k = binary.AppendUvarint(k, uint64(ref.id))
		k = binary.AppendUvarint(k, uint64(ref.pi))
	}
	t.key = k
	if tl, found = t.tails[string(k)]; found {
		return tl, true, ""
	}
	return tail{}, false, string(k)
}

// storeTail keeps tl under a key lookupTail returned.
func (t *recordTable) storeTail(key string, tl tail) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.tails == nil {
		t.tails = map[string]tail{}
	}
	t.tails[key] = tl
}
