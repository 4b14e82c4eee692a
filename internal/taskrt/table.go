package taskrt

import (
	"encoding/binary"
	"slices"
	"sync"

	"github.com/datampi/datampi-go/internal/dfs"
)

// recordTable is an engine's shared record work: the map-side results of
// the jobs whose spec has a fingerprint (job.Spec.Fingerprint), one per
// (block, fingerprint, shape), and the reduce tails (Pending.Tail) over
// them. Jobs that repeat a query over the same data ask for the same key
// again and again; the table computes each key once and hands the result
// to every later caller, who must treat it as immutable. Simulated
// charges never depend on it: every caller charges its task in full. An
// entry two jobs asked for lives as long as the engine; see join.
type recordTable struct {
	mu      sync.Mutex
	settled sync.Cond           // a computation in flight settled; L is &mu
	shapes  map[shapeKey]uint32 // every shape asked for, numbered from 0
	maps    map[mapKey]any      // *mapEntry[T]
	tails   map[string]*tailEntry
	lastID  uint32   // the last id handed to a done entry
	key     []byte   // scratch for a reduce tail's key; mu held
	ids     []uint32 // scratch for a reduce tail's entries; mu held
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
	jobs  int      // the jobs that asked for it and have not ended
	kept  bool     // a second job asked for it: it lives as long as the engine
	id    uint32   // names val in the keys of the reduce tails over it; set once done
	tails []string // the tails that go when it does (see reduceTail)
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

// drop deletes e, and the tails that go with it, from the table once no
// running job asked for it, none kept it and no caller computes it, so
// that a job joining later starts afresh while a computation in flight
// stays the only one. t.mu is held.
func (e *mapEntry[T]) drop(t *recordTable) {
	if e.jobs == 0 && !e.kept && e.state != inFlight && t.maps[e.key] == any(e) {
		delete(t.maps, e.key)
		for _, k := range e.tails {
			delete(t.tails, k)
		}
		e.tails = nil
	}
}

// live reports whether e is still the table's entry for its key. t.mu is
// held.
func (e *mapEntry[T]) live(t *recordTable) bool { return t.maps[e.key] == any(e) }

// share returns e's value, computing it as work(i) on the caller when
// nobody has; computed reports that it did. One computation per entry is
// in flight at a time; a second caller waits for it. A work that panics
// leaves the entry idle, so the next caller computes afresh.
func share[T any](t *recordTable, e *mapEntry[T], work func(i int) T, i int) (v T, computed bool) {
	t.mu.Lock()
	for e.state == inFlight {
		t.settled.Wait()
	}
	if e.state == done {
		t.mu.Unlock()
		return e.val, false
	}
	e.state = inFlight
	t.mu.Unlock()
	defer func() {
		if !computed { // work panicked
			t.mu.Lock()
			e.state = idle
			e.drop(t)
			t.settled.Broadcast()
			t.mu.Unlock()
		}
	}()
	v = work(i)
	computed = true
	t.mu.Lock()
	e.val, e.state = v, done
	t.lastID++
	e.id = t.lastID
	e.drop(t)
	t.settled.Broadcast()
	t.mu.Unlock()
	return v, true
}

// partitioned is a map-side result that carries its sized output:
// Mapped, or an engine's own result type embedding Partitioned (empty on
// failure).
type partitioned interface{ partitioned() *Partitioned }

func (p *Partitioned) partitioned() *Partitioned { return p }
func (m *Mapped) partitioned() *Partitioned      { return &m.Out }

// tail is one reduce task's output text and record count.
type tail struct {
	text    []byte
	records int
}

// tailEntry is one reduce tail in the table.
type tailEntry struct {
	state entryState // inFlight or done
	tail
}

// reduceTail returns the reduce tail of a spec with fingerprint fp,
// encoded into text or not, over partition ri of the results of es —
// done entries, which one job asked for and has not left — computing it
// as compute() on the caller when nobody has; one computation is in
// flight at a time, and a second caller waits for it. The key names the
// entries whose partition ri is non-empty, by id and sorted: kv.Compare
// orders pairs totally, so the merge's text depends on the runs' contents
// alone, not on their order, and empty runs add nothing to it. A tail
// over an entry nobody kept goes with the first such entry in es (with
// jobs that share only some blocks another can go first, which leaves
// the tail unreachable until then), so a job that shares nothing keeps
// nothing; one over kept entries alone lives as long as they do.
func reduceTail[T any](t *recordTable, fp string, encode bool, es []*mapEntry[T], ri int, compute func() tail) tail {
	t.mu.Lock()
	ids := t.ids[:0]
	var anchor *mapEntry[T] // the contributor whose drop takes the tail
	for _, e := range es {
		if e.state != done || !e.live(t) {
			t.ids = ids
			t.mu.Unlock()
			return compute()
		}
		if len(any(&e.val).(partitioned).partitioned().Parts[ri]) > 0 {
			ids = append(ids, e.id)
			if anchor == nil && !e.kept {
				anchor = e
			}
		}
	}
	slices.Sort(ids)
	flag := uint64(ri) << 1
	if encode {
		flag |= 1
	}
	k := binary.AppendUvarint(t.key[:0], uint64(len(fp)))
	k = append(k, fp...)
	k = binary.AppendUvarint(k, flag)
	for _, id := range ids {
		k = binary.AppendUvarint(k, uint64(id))
	}
	t.ids, t.key = ids, k
	te := t.tails[string(k)]
	if te != nil && te.state == done {
		t.mu.Unlock()
		return te.tail
	}
	key := string(k) // t.key is scratch another caller reuses while this one waits
	for te != nil && te.state == inFlight {
		t.settled.Wait()
		te = t.tails[key]
	}
	if te != nil {
		t.mu.Unlock()
		return te.tail
	}
	if t.tails == nil {
		t.tails = map[string]*tailEntry{}
	}
	te = &tailEntry{state: inFlight}
	t.tails[key] = te
	t.mu.Unlock()
	var tl tail
	computed := false
	defer func() {
		t.mu.Lock()
		if !computed || anchor != nil && !anchor.live(t) {
			delete(t.tails, key) // compute panicked, or the job left: keep nothing
		} else {
			te.state, te.tail = done, tl
			if anchor != nil {
				anchor.tails = append(anchor.tails, key)
			}
		}
		t.settled.Broadcast()
		t.mu.Unlock()
	}()
	tl = compute()
	computed = true
	return tl
}
