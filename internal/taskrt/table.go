package taskrt

import (
	"encoding/binary"
	"fmt"
	"slices"

	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/kv"
)

// recordTable is an engine's shared record work: the map-side results of
// the jobs whose spec has a fingerprint (job.Spec.Fingerprint), one per
// (block, fingerprint, shape), and the reduce tails (Pending.Tail) over
// them, each a cell. Jobs that repeat a query over the same data ask for
// the same key again and again; the table computes each key once and
// hands the result to every later caller, who must treat it as
// immutable. Simulated charges never depend on it: every caller charges
// its task in full. An entry two jobs asked for lives as long as the
// engine; see join. ahead.mu guards it.
type recordTable struct {
	shapes map[shapeKey]uint32 // every shape asked for, numbered from 0
	maps   map[mapKey]any      // *mapEntry[T]
	tails  map[string]*cell[tail]
	lastID uint32   // the last id handed to a done entry
	key    []byte   // scratch for a reduce tail's key
	ids    []uint32 // scratch for a reduce tail's entries
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

type mapEntry[T any] struct {
	cell[T]
	key   mapKey
	id    uint32   // names val in the keys of the reduce tails over it; set once done
	jobs  int      // the jobs that asked for it and have not ended
	kept  bool     // a second job asked for it: it lives as long as the engine
	tails []string // the tails that go when it does (see reduceTail)
}

// join enters one job's interest in blocks under shape s and returns their
// entries, made idle for the blocks nobody asked for yet. An entry a
// second job asks for while the first still runs is kept for the
// engine's life; one only its own job asked for goes when that job ends
// and nobody computes it (see drop), so a job that shares nothing keeps
// nothing. ahead.mu is held.
func join[T any](t *recordTable, s shapeKey, blocks []*dfs.Block) []*mapEntry[T] {
	if t.maps == nil {
		t.shapes, t.maps, t.tails = map[shapeKey]uint32{}, map[mapKey]any{}, map[string]*cell[tail]{}
	}
	shape, ok := t.shapes[s]
	if !ok {
		shape = uint32(len(t.shapes))
		t.shapes[s] = shape
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

// drop deletes e, and the tails that go with it, from the table once no
// running job asked for it, none kept it and nobody computes it, so that
// a job joining later starts afresh while a computation in flight stays
// the only one. ahead.mu is held.
func (e *mapEntry[T]) drop(t *recordTable) {
	if e.jobs == 0 && !e.kept && e.state != running && e.live(t) {
		delete(t.maps, e.key)
		for _, k := range e.tails {
			delete(t.tails, k)
		}
		e.tails = nil
	}
}

// live reports whether e is still the table's entry for its key.
// ahead.mu is held.
func (e *mapEntry[T]) live(t *recordTable) bool { return t.maps[e.key] == any(e) }

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

// frozenSeam, when set, sees each record table cell as it turns done: a
// map entry's partitions (text nil) or a reduce tail's text, with the
// spec's fingerprint and which block or partition it is. The freeze check
// sets it (through FrozenSeam) to hash those bytes, and hashes them again
// when the test ends: nobody may write into what a table shares. It runs
// under ahead.mu, before any other caller can have the cell, so it must
// not call into this package; it runs on the Ahead workers too.
var frozenSeam func(fingerprint, what string, parts [][]kv.Pair, text []byte)

// FrozenSeam installs f as the freeze seam (see frozenSeam) and returns
// the one it replaces.
func FrozenSeam(f func(fingerprint, what string, parts [][]kv.Pair, text []byte)) (
	old func(fingerprint, what string, parts [][]kv.Pair, text []byte)) {
	ahead.mu.Lock()
	defer ahead.mu.Unlock()
	old, frozenSeam = frozenSeam, f
	return old
}

// reduceTail returns the reduce tail of a spec with fingerprint fp,
// encoded into text or not, over partition ri of the results of es —
// done entries, which one job asked for and has not left — computing it
// as compute() on the caller when nobody has, or waiting for the one
// computation in flight. The key names the entries whose partition ri is
// non-empty, by id and sorted: kv.Compare orders pairs totally, so the
// merge's text depends on the runs' contents alone, not on their order,
// and empty runs add nothing to it. A tail over an entry nobody kept goes
// with the first such entry in es (with jobs that share only some blocks
// another can go first, which leaves the tail unreachable until then),
// so a job that shares nothing keeps nothing; one over kept entries alone
// lives as long as they do. A compute that panics leaves no entry.
func reduceTail[T any](t *recordTable, fp string, encode bool, es []*mapEntry[T], ri int, compute func() tail) tail {
	ahead.mu.Lock()
	defer ahead.mu.Unlock()
	ids := t.ids[:0]
	var anchor *mapEntry[T] // the contributor whose drop takes the tail
	for _, e := range es {
		if e.state != done || !e.live(t) {
			t.ids = ids
			tl, _ := new(cell[tail]).get(compute) // with ahead.mu released
			return tl
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
	c := t.tails[string(k)]
	if c != nil && c.state == done {
		return c.val
	}
	key := string(k) // t.key is scratch another caller reuses while this one waits
	if c == nil {
		c = new(cell[tail])
		t.tails[key] = c
	}
	defer func() {
		// A compute that panicked, or that ran while the job left, keeps
		// nothing.
		if t.tails[key] == c && (c.state != done || anchor != nil && !anchor.live(t)) {
			delete(t.tails, key)
		}
	}()
	tl, computed := c.get(compute)
	if computed && (anchor == nil || anchor.live(t)) {
		t.tails[key] = c
		if anchor != nil {
			anchor.tails = append(anchor.tails, key)
		}
		if frozenSeam != nil {
			frozenSeam(fp, fmt.Sprintf("partition %d", ri), nil, tl.text)
		}
	}
	return tl
}
