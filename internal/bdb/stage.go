package bdb

import (
	"bytes"
	"fmt"
	"sync"

	"github.com/datampi/datampi-go/internal/dfs"
)

// stageBudget caps the bytes the staging store keeps (see
// stageStore.keep): room for the inputs one figure or one benchmark
// workload stages for its three engines and its sizes, so that each is
// generated, and each seq+gzip block deflated, once. Kept bytes raise
// peak RSS by up to twice their size, since the GC's heap goal doubles
// what is live, so a larger budget buys hits at that price: `run all`
// stages 119 MB of distinct inputs, and makes 130 MB at this budget.
const stageBudget = 24 << 20

// stageEntryBytes is what an entry costs beside its bytes: its struct and
// its slot in the store's map.
const stageEntryBytes = 256

// stageKind says which generator made a staged value.
type stageKind uint8

const (
	textStream stageKind = iota // SeedModel.GenerateText (GenerateTextFile)
	vectorFile                  // GenerateVectorFile's lines and ground truth
	docFile                     // GenerateLabeledDocs' lines
	seqMember                   // one text block's gzip member (ToSeqFile)
)

// stageKey names one staged value. A generated file is a function of its
// generator, seed model, seed and real byte count alone; a seq member is
// a function of its text block's bytes, named here by their length and
// hash and confirmed byte for byte (see staging).
type stageKey struct {
	kind  stageKind
	model SeedModel // a text stream's seed model, by value
	seed  int64
	size  int    // real bytes asked for; a seq member's text block length
	hash  uint64 // a seq member's text block's contentHash
}

func (k stageKey) String() string {
	switch k.kind {
	case textStream:
		return fmt.Sprintf("%s text, seed %d, %d B", k.model.Name, k.seed, k.size)
	case vectorFile:
		return fmt.Sprintf("vector file, seed %d, %d B", k.seed, k.size)
	case docFile:
		return fmt.Sprintf("labeled docs, seed %d, %d B", k.seed, k.size)
	}
	return fmt.Sprintf("seq member of a %d B text block, hash %#x", k.size, k.hash)
}

// staged is one staged value: the bytes every FS that stages it preloads,
// and a vector file's ground truth.
type staged struct {
	data  []byte
	truth []int
}

type stageState uint8

const (
	failed  stageState = iota // its computation panicked; the entry left the store
	running                   // a caller is computing it
	done                      // val is set
)

type stageEntry struct {
	key        stageKey
	src        []byte // a seq member's text block (its own copy), for the byte check
	state      stageState
	val        staged
	size       int // what it keeps reachable
	prev, next *stageEntry
}

// stageStore is the process's staged inputs: each generated file, by its
// key, and each seq+gzip member, by its text block's content. Every rig
// still stages through its own FS (PreloadAligned, PreloadParts), so
// block IDs, placement draws and disk charges are those of a fresh
// generation; what the store saves is the generating and the deflating.
// The FSes share the bytes, which nobody may write into. Done entries sit
// on one recency list, whose bytes the budget bounds.
type stageStore struct {
	budget  int
	entries map[stageKey]*stageEntry
	recent  stageEntry // the recency list's sentinel: recent.next is the least recently used
	bytes   int        // what the entries on the list keep reachable
}

func newStageStore(budget int) *stageStore {
	s := &stageStore{budget: budget, entries: map[stageKey]*stageEntry{}}
	s.recent.prev, s.recent.next = &s.recent, &s.recent
	return s
}

// stage is the staging store. stageMu guards it, every entry and the
// freeze seam; stageSettled signals that an entry's computation settled.
var (
	stageMu      sync.Mutex
	stageSettled = sync.NewCond(&stageMu)
	stage        = newStageStore(stageBudget)
	frozenSeam   func(key string, data []byte)
)

// contentHash is the hash of a text block's bytes in a seq member's key;
// a test replaces it to force collisions.
var contentHash = (*dfs.Block).ContentHash

// EmptyStage installs an empty staging store and returns a func that puts
// back the one it replaced: for a test that counts what the store makes,
// or that checks values staged on an empty store against those staged on
// a warm one. Callers waiting for an entry of the old store still get it.
func EmptyStage() (restore func()) { return swapStage(newStageStore(stageBudget)) }

func swapStage(s *stageStore) (restore func()) {
	stageMu.Lock()
	defer stageMu.Unlock()
	old := stage
	stage = s
	return func() {
		stageMu.Lock()
		defer stageMu.Unlock()
		stage = old
	}
}

// FrozenSeam installs f as the freeze seam and returns the one it
// replaces. The seam sees, by key and bytes, every value the staging
// store holds when f is installed and each one it makes later: the freeze
// check hashes them, and hashes them again when its test ends, since
// every FS that stages a value shares its bytes. It runs under stageMu,
// so it must not call into the store.
func FrozenSeam(f func(key string, data []byte)) (old func(key string, data []byte)) {
	stageMu.Lock()
	defer stageMu.Unlock()
	old, frozenSeam = frozenSeam, f
	if f != nil {
		for e := stage.recent.next; e != &stage.recent; e = e.next {
			f(e.key.String(), e.val.data)
		}
	}
	return old
}

// staging returns the value staged under k, computing it as compute() on
// the caller when the store holds none, or waiting for the computation in
// flight. For a seq member src is the text block's bytes: an entry made
// from other bytes under the same key (a hash collision) is not shared,
// and the caller computes a value of its own, which the store does not
// keep. The value's data has its capacity clipped to its length, so no
// append through one FS's block reaches bytes another FS shares.
func staging(k stageKey, src []byte, compute func() staged) staged {
	stageMu.Lock()
	for {
		s := stage
		e := s.entries[k]
		if e == nil {
			e = &stageEntry{key: k, src: bytes.Clone(src), state: running}
			s.entries[k] = e
			return s.fill(e, compute)
		}
		if !bytes.Equal(e.src, src) {
			stageMu.Unlock()
			return compute()
		}
		for e.state == running {
			stageSettled.Wait()
		}
		if e.state == done {
			s.touch(e)
			stageMu.Unlock()
			return e.val
		}
		// Its computation panicked and it left the store: start afresh.
	}
}

// fill computes running entry e with stageMu released and settles it:
// done and kept (see keep), or failed and out of the store, the panic
// propagating. stageMu is held on entry and released on return.
func (s *stageStore) fill(e *stageEntry, compute func() staged) staged {
	stageMu.Unlock()
	ok := false
	defer func() {
		if !ok {
			stageMu.Lock()
			e.state = failed
			if s.entries[e.key] == e {
				delete(s.entries, e.key)
			}
			stageSettled.Broadcast()
			stageMu.Unlock()
		}
	}()
	v := compute()
	ok = true
	stageMu.Lock()
	defer stageMu.Unlock()
	e.size = stageEntryBytes + cap(v.data) + 8*cap(v.truth) + cap(e.src)
	v.data = v.data[:len(v.data):len(v.data)]
	e.state, e.val = done, v
	if frozenSeam != nil {
		frozenSeam(e.key.String(), v.data)
	}
	s.keep(e)
	stageSettled.Broadcast()
	return v
}

// keep appends done entry e, newest, to the recency list and evicts the
// least recently used entries while the kept bytes exceed the budget. An
// entry larger than the whole budget is served to the callers that asked
// for it but not kept, and evicts nothing. stageMu is held.
func (s *stageStore) keep(e *stageEntry) {
	if e.size > s.budget {
		delete(s.entries, e.key)
		return
	}
	s.link(e)
	for s.bytes > s.budget {
		old := s.recent.next
		s.unlink(old)
		delete(s.entries, old.key)
	}
}

// touch makes e, if the store keeps it, the most recently used. stageMu
// is held.
func (s *stageStore) touch(e *stageEntry) {
	if e.prev != nil {
		s.unlink(e)
		s.link(e)
	}
}

func (s *stageStore) link(e *stageEntry) {
	e.prev, e.next = s.recent.prev, &s.recent
	e.prev.next, s.recent.prev = e, e
	s.bytes += e.size
}

func (s *stageStore) unlink(e *stageEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
	s.bytes -= e.size
}
