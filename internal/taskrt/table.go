package taskrt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/kv"
)

// entryBytes is what an entry costs beside its result's bytes: its
// struct (a 288 B size class for a Mapped result) and its slot in the
// store's map.
const entryBytes = 352

// recordStore is the process's shared record work: the map-side results
// of the jobs whose spec has a fingerprint (job.Spec.Fingerprint), one
// per (block content, fingerprint, shape), and the reduce tails
// (Pending.Tail) over them, each a cell. Jobs that repeat a query over
// the same bytes — on one engine or another, on one input or a larger
// one that begins with the same blocks — ask for the same key again; the
// store computes each key once and hands the result to every later
// caller, who must treat it as immutable. Simulated charges never depend
// on it: every caller charges its task in full. An entry lives while a
// job that asked for it runs; then it joins a recency list of idle
// entries, whose bytes the budget bounds, and the oldest go first (see
// drop). ahead.mu guards it.
type recordStore struct {
	budget    int                 // idle bytes kept at most: storeBudget, or a test's own
	shapes    map[shapeKey]uint32 // every shape asked for, numbered from 0
	contents  map[contentKey]*content
	maps      map[mapKey]any // *mapEntry[T]
	tails     map[string]*cell[tail]
	idle      entryHead // the idle list's sentinel: idle.next is the oldest
	idleBytes int       // what the idle entries keep reachable
	lastID    uint32    // the last id handed to a done entry
	key       []byte    // scratch for a reduce tail's key
	ids       []uint32  // scratch for a reduce tail's entries
}

func newRecordStore(budget int) *recordStore {
	t := &recordStore{budget: budget, shapes: map[shapeKey]uint32{}, contents: map[contentKey]*content{},
		maps: map[mapKey]any{}, tails: map[string]*cell[tail]{}}
	t.idle.prev, t.idle.next = &t.idle, &t.idle
	return t
}

// EmptyStore installs an empty record store and returns a func that puts
// back the one it replaced: for a test that counts the record work its
// jobs do, or checks every cell they share, whatever earlier tests left
// behind. Jobs that joined the old store keep it; call EmptyStore while
// no job runs.
func EmptyStore() (restore func()) { return swapStore(newRecordStore(storeBudget)) }

func swapStore(t *recordStore) (restore func()) {
	ahead.mu.Lock()
	defer ahead.mu.Unlock()
	old := ahead.store
	ahead.store = t
	return func() {
		ahead.mu.Lock()
		defer ahead.mu.Unlock()
		ahead.store = old
	}
}

// shapeKey is what a map-side result depends on besides its block: the
// spec's record functions, which the fingerprint names, and how the
// output is partitioned and sized.
type shapeKey struct {
	fingerprint               string
	parts                     int
	sortBuf, scale, emitScale float64
}

// contentKey names a block's bytes: their length and hash (contentHash).
// A hit is confirmed byte for byte (see join).
type contentKey struct {
	size int
	hash uint64
}

// mapKey is one block's content under one numbered shape: a small key
// keeps the map's growth, which a job that shares nothing pays per task,
// small.
type mapKey struct {
	contentKey
	shape uint32
}

// contentHash is the hash of a block's bytes in its key. It is computed
// before ahead.mu is taken; a test replaces it to force collisions.
var contentHash = (*dfs.Block).ContentHash

// content is the bytes the store's entries over one block content were
// computed from, pinned for the equality check. They count once towards
// the idle bytes, while every entry over them is idle.
type content struct {
	key             contentKey
	data            []byte
	entries, parked int // the live entries over it; those of them idle
}

// entryHead is what the store keeps of a map entry whatever its result
// type: its key, its jobs and its place in the idle list.
type entryHead struct {
	key        mapKey
	in         *content // nil for a private entry
	id         uint32   // names val in the keys of the reduce tails over it; set once done
	jobs       int      // the jobs that asked for it and have not ended
	size       int      // what it keeps reachable beside its content: entryBytes, the result's pairs, its tails
	tails      []string // the tails that go when it does (see reduceTail)
	prev, next *entryHead
}

type mapEntry[T any] struct {
	cell[T]
	entryHead
}

// join enters one job's interest in blocks under shape s and returns their
// entries, made idle for the blocks nobody asked for yet; hashes are the
// blocks' contentHash. A block whose key matches content of other bytes
// (a collision), or an entry that holds another result type, is not
// shared: the job gets a private entry that never enters the store.
// ahead.mu is held.
func join[T any](t *recordStore, s shapeKey, blocks []*dfs.Block, hashes []uint64) []*mapEntry[T] {
	shape, ok := t.shapes[s]
	if !ok {
		shape = uint32(len(t.shapes))
		t.shapes[s] = shape
	}
	es := make([]*mapEntry[T], len(blocks))
	for i, blk := range blocks {
		ck := contentKey{len(blk.Data), hashes[i]}
		k := mapKey{ck, shape}
		c := t.contents[ck]
		if c == nil {
			c = &content{key: ck, data: blk.Data}
			t.contents[ck] = c
		}
		old := t.maps[k]
		e, ok := old.(*mapEntry[T])
		switch {
		case !bytes.Equal(c.data, blk.Data) || old != nil && !ok:
			e = &mapEntry[T]{entryHead: entryHead{key: k}}
		case old == nil:
			e = &mapEntry[T]{entryHead: entryHead{key: k, in: c}}
			t.maps[k] = e
			t.count(c, 1, 0)
		default:
			t.unpark(&e.entryHead)
		}
		e.jobs++
		es[i] = e
	}
	return es
}

// drop settles e once no running job asked for it and nobody computes
// it: done, it joins the idle list (park); otherwise it leaves the store,
// so that a job joining later starts afresh while a computation in flight
// stays the only one. ahead.mu is held.
func (e *mapEntry[T]) drop(t *recordStore) {
	if e.jobs > 0 || e.state == running || e.prev != nil || !e.live(t) {
		return
	}
	if e.state == done {
		t.park(&e.entryHead)
	} else {
		t.remove(&e.entryHead)
	}
}

// live reports whether e is still the store's entry for its key.
// ahead.mu is held.
func (e *mapEntry[T]) live(t *recordStore) bool { return t.maps[e.key] == any(e) }

// park appends h, newest, to the idle list and evicts the oldest idle
// entries, with their tails, while the idle bytes exceed the budget.
// ahead.mu is held.
func (t *recordStore) park(h *entryHead) {
	h.prev, h.next = t.idle.prev, &t.idle
	h.prev.next, t.idle.prev = h, h
	t.count(h.in, 0, 1)
	t.grow(h.size)
}

// grow adds n idle bytes and evicts as park does. ahead.mu is held.
func (t *recordStore) grow(n int) {
	t.idleBytes += n
	for t.idleBytes > t.budget && t.idle.next != &t.idle {
		t.remove(t.idle.next)
	}
}

// unpark takes h off the idle list, if it is on it. ahead.mu is held.
func (t *recordStore) unpark(h *entryHead) {
	if h.prev == nil {
		return
	}
	h.prev.next, h.next.prev = h.next, h.prev
	h.prev, h.next = nil, nil
	t.idleBytes -= h.size
	t.count(h.in, 0, -1)
}

// count adds entries and parked entries to c's counts, charging its bytes
// to the idle ones while every entry over it is idle and dropping it with
// its last entry. ahead.mu is held.
func (t *recordStore) count(c *content, entries, parked int) {
	charged := func() int {
		if c.entries > 0 && c.entries == c.parked {
			return len(c.data)
		}
		return 0
	}
	t.idleBytes -= charged()
	c.entries, c.parked = c.entries+entries, c.parked+parked
	t.idleBytes += charged()
	if c.entries == 0 {
		delete(t.contents, c.key)
	}
}

// remove deletes live entry h and its tails from the store. ahead.mu is
// held.
func (t *recordStore) remove(h *entryHead) {
	t.unpark(h)
	delete(t.maps, h.key)
	t.count(h.in, -1, 0)
	for _, k := range h.tails {
		delete(t.tails, k)
	}
	h.tails = nil
}

// pairBytes is what the partitions of a map-side result keep reachable:
// their pairs' bytes and slice headers (48 B a pair) and the per-partition
// slices; 0 for a result that is not partitioned. Bytes that alias the
// input count twice, with the content; the unfilled end of the last arena
// block a result's pairs were cut from (kv.Arena) is not counted.
func pairBytes(v any) int {
	pt, ok := v.(partitioned)
	if !ok {
		return 0
	}
	out := pt.partitioned()
	n := 24*cap(out.Parts) + 8*(cap(out.Nominal)+cap(out.Records))
	for _, part := range out.Parts {
		n += cap(part) * 48
		for _, p := range part {
			n += len(p.Key) + len(p.Value)
		}
	}
	return n
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

// frozenSeam, when set, sees each record store cell as it turns done: a
// map entry's partitions (text nil) or a reduce tail's text, with the
// spec's fingerprint and which block or partition it is. The freeze check
// sets it (through FrozenSeam) to hash those bytes, and hashes them again
// when the test ends: nobody may write into what the store shares. It
// runs under ahead.mu, before any other caller can have the cell, so it
// must not call into this package; it runs on the Ahead workers too.
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
// done entries, which one job asked for — computing it as compute() on
// the caller when nobody has, or waiting for the one computation in
// flight. The key names the entries whose partition ri is non-empty, by
// id and sorted: kv.Compare orders pairs totally, so the merge's text
// depends on the runs' contents alone, not on their order, and empty runs
// add nothing to it. A tail goes with the first of them in es, its
// anchor, whose size its text adds to (with jobs that share only some
// blocks another can go first, which leaves the tail unreachable until
// then). A tail over no entry's records has no anchor: its text depends
// on the spec alone, and it stays as long as the store. A tail over
// private entries, or whose compute panics, is not kept.
func reduceTail[T any](t *recordStore, fp string, encode bool, es []*mapEntry[T], ri int, compute func() tail) tail {
	ahead.mu.Lock()
	defer ahead.mu.Unlock()
	ids := t.ids[:0]
	var anchor *mapEntry[T]
	for _, e := range es {
		if e.state != done || !e.live(t) {
			t.ids = ids
			tl, _ := new(cell[tail]).get(compute) // with ahead.mu released
			return tl
		}
		if len(any(&e.val).(partitioned).partitioned().Parts[ri]) > 0 {
			ids = append(ids, e.id)
			if anchor == nil {
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
		// A compute that panicked, or whose anchor was evicted meanwhile,
		// keeps nothing.
		if t.tails[key] == c && (c.state != done || anchor != nil && !anchor.live(t)) {
			delete(t.tails, key)
		}
	}()
	tl, computed := c.get(compute)
	if computed && (anchor == nil || anchor.live(t)) {
		t.tails[key] = c
		if anchor != nil {
			anchor.tails = append(anchor.tails, key)
			n := len(key) + cap(tl.text)
			if anchor.size += n; anchor.prev != nil {
				t.grow(n)
			}
		}
		if frozenSeam != nil {
			frozenSeam(fp, fmt.Sprintf("partition %d", ri), nil, tl.text)
		}
	}
	return tl
}
