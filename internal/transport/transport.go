// Package transport models data movement between tasks as explicit
// stages instead of an opaque fluid flow. Every transfer decomposes
// into serialize (CPU on the sender), copy/buffer (memory bandwidth on
// the sender plus pinned-buffer occupancy), wire (the existing
// sim.Fabric flow), and deserialize (CPU on the receiver). A zero-copy
// path skips the copy stage for contiguous records at or above a
// profile threshold, which is the mechanistic core of the paper's
// communication argument: Hadoop pays serialize+copy per record while
// DataMPI's buffered native sends move arena blocks without the
// intermediate copy.
//
// The package is additive: with a zero Profile (all stage costs zero)
// the staged path degenerates to exactly the legacy fluid flow, and
// engines keep their inline emit-CPU charges in both modes, so staged
// time >= fluid time per transfer by construction.
package transport

import (
	"fmt"
	"strconv"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/sim"
	"github.com/datampi/datampi-go/internal/trace"
)

// Profile holds one engine's per-stage communication costs. The zero
// value (Name == "") means "unset" and costs nothing beyond the wire.
type Profile struct {
	// Name identifies the profile ("" = unset/zero profile).
	Name string

	// EmitCPUPerByte is the engine-side shuffle-write serialization
	// cost per nominal byte. Engines charge it inline in both fluid and
	// staged modes.
	EmitCPUPerByte float64

	// Staged wire-path costs, charged only when the transport is
	// enabled. Per-record terms model object/header handling that
	// dominates at small record sizes.
	SerializeCPUPerByte     float64
	SerializeCPUPerRecord   float64
	DeserializeCPUPerByte   float64
	DeserializeCPUPerRecord float64

	// CopyBandwidth is the per-node memory-bus bandwidth (bytes/sec)
	// consumed by the copy/buffer stage. Zero disables the stage.
	CopyBandwidth float64

	// PinnedBufferBytes is the send-buffer occupancy held in sender
	// memory for the duration of a transfer (capped at the transfer
	// size). Zero pins nothing.
	PinnedBufferBytes float64

	// ZeroCopy marks the profile eligible to skip the copy stage for
	// contiguous records of at least ZeroCopyThresholdBytes.
	ZeroCopy               bool
	ZeroCopyThresholdBytes float64

	// Pipelined marks map-output blocks fetchable as they commit
	// (every PipelineBlockBytes of nominal output, a modelled block
	// with no host buffer behind it) so fetch overlaps map compute.
	Pipelined          bool
	PipelineBlockBytes float64
}

// HadoopProfile models the MapReduce shuffle path: Writable
// serialization into spill buffers, a copy into the HTTP servlet's
// transfer buffer, and Writable deserialization on the reduce side.
// Heavy per-record costs make its overhead grow as records shrink.
func HadoopProfile() Profile {
	return Profile{
		Name:                    "hadoop",
		EmitCPUPerByte:          0.3e-7,
		SerializeCPUPerByte:     0.03e-7,
		SerializeCPUPerRecord:   1.2e-6,
		DeserializeCPUPerByte:   0.03e-7,
		DeserializeCPUPerRecord: 1.2e-6,
		CopyBandwidth:           1.5 * 1e9,
		PinnedBufferBytes:       4 * 1024 * 1024,
	}
}

// SparkProfile models the serialized shuffle: cheaper per-byte and
// per-record costs than Hadoop's Writable path (Kryo-style) but still
// a copy through the shuffle file/netty buffer; no zero-copy
// eligibility.
func SparkProfile() Profile {
	return Profile{
		Name:                    "spark",
		EmitCPUPerByte:          0.8e-7,
		SerializeCPUPerByte:     0.025e-7,
		SerializeCPUPerRecord:   0.9e-6,
		DeserializeCPUPerByte:   0.025e-7,
		DeserializeCPUPerRecord: 0.9e-6,
		CopyBandwidth:           2.0 * 1e9,
		PinnedBufferBytes:       4 * 1024 * 1024,
	}
}

// DataMPIProfile models buffered native sends: key/value pairs are
// batched into contiguous arena blocks, so per-record costs are near
// zero and blocks at or above the threshold go out zero-copy. Blocks
// become fetchable as they commit (pipelined shuffle).
func DataMPIProfile() Profile {
	return Profile{
		Name:                    "datampi",
		EmitCPUPerByte:          0.45e-7,
		SerializeCPUPerByte:     0.005e-7,
		SerializeCPUPerRecord:   0.02e-6,
		DeserializeCPUPerByte:   0.005e-7,
		DeserializeCPUPerRecord: 0.02e-6,
		CopyBandwidth:           6.0 * 1e9,
		PinnedBufferBytes:       4 * 1024 * 1024,
		ZeroCopy:                true,
		ZeroCopyThresholdBytes:  512,
		Pipelined:               true,
		PipelineBlockBytes:      4 * 1024 * 1024, // nominal bytes per committed block
	}
}

// PipelineMode overrides a profile's pipelining flag at scenario level.
type PipelineMode int

const (
	// PipelineProfile follows the profile's Pipelined flag.
	PipelineProfile PipelineMode = iota
	// PipelineOn forces pipelined shuffle.
	PipelineOn
)

// Stats counts staged-transport activity. All byte counters are
// nominal bytes.
type Stats struct {
	Transfers       int64
	BytesSerialized float64
	BytesCopied     float64
	BytesZeroCopied float64
	BytesWire       float64
	// BytesPipelined counts bytes fetched through pipelined streams;
	// BytesOverlapped is the subset fetched while the producer was
	// still running (the overlap the pipeline buys).
	BytesPipelined  float64
	BytesOverlapped float64
}

// Sub returns s minus prev, counter-wise.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Transfers:       s.Transfers - prev.Transfers,
		BytesSerialized: s.BytesSerialized - prev.BytesSerialized,
		BytesCopied:     s.BytesCopied - prev.BytesCopied,
		BytesZeroCopied: s.BytesZeroCopied - prev.BytesZeroCopied,
		BytesWire:       s.BytesWire - prev.BytesWire,
		BytesPipelined:  s.BytesPipelined - prev.BytesPipelined,
		BytesOverlapped: s.BytesOverlapped - prev.BytesOverlapped,
	}
}

// OverlapFraction is the share of pipelined bytes fetched while the
// producing map was still running.
func (s Stats) OverlapFraction() float64 {
	if s.BytesPipelined <= 0 {
		return 0
	}
	return s.BytesOverlapped / s.BytesPipelined
}

func (s Stats) String() string {
	return fmt.Sprintf("transfers=%d serialized=%.0f copied=%.0f zerocopied=%.0f wire=%.0f pipelined=%.0f overlap=%.2f",
		s.Transfers, s.BytesSerialized, s.BytesCopied, s.BytesZeroCopied, s.BytesWire, s.BytesPipelined, s.OverlapFraction())
}

// Transport schedules staged transfers on one cluster's resources.
type Transport struct {
	c       *cluster.Cluster
	prof    Profile
	enabled bool
	pmode   PipelineMode
	stats   Stats
	// membus is the lazy per-node copy-stage resource (CopyBandwidth
	// capacity, processor-sharing like every other stage resource).
	membus []*sim.PSResource
	// tr records stage spans when attached. Tracing is pure
	// observation: it adds no simulator events and never changes
	// timings; nil means off.
	tr *trace.Tracer
}

// New builds a transport over a cluster with the given profile. It
// starts disabled: engines route through it only after SetEnabled.
func New(c *cluster.Cluster, prof Profile) *Transport {
	return &Transport{c: c, prof: prof}
}

// SetEnabled switches staged accounting on or off.
func (t *Transport) SetEnabled(on bool) { t.enabled = on }

// SetTracer attaches a span recorder (nil detaches).
func (t *Transport) SetTracer(tr *trace.Tracer) { t.tr = tr }

// stageSpan opens a transport-stage span on the dedicated transport
// lane, or returns nil when stage tracing is off.
func (t *Transport) stageSpan(name string, node int, bytes float64) *trace.Span {
	if t.tr == nil || !t.tr.Stages() {
		return nil
	}
	return t.tr.Begin(name, name, node, trace.TidTransport, t.c.Eng.Now()).
		Annotate("bytes", strconv.FormatFloat(bytes, 'f', 0, 64))
}

// Enabled reports whether staged accounting is active.
func (t *Transport) Enabled() bool { return t != nil && t.enabled }

// Profile returns the active profile.
func (t *Transport) Profile() Profile { return t.prof }

// SetPipelineMode overrides the profile's pipelining flag.
func (t *Transport) SetPipelineMode(m PipelineMode) { t.pmode = m }

// PipelineModeValue returns the current override.
func (t *Transport) PipelineModeValue() PipelineMode { return t.pmode }

// Pipelined reports whether pipelined shuffle is in effect.
func (t *Transport) Pipelined() bool {
	return t.Enabled() && (t.pmode == PipelineOn || t.prof.Pipelined)
}

// Stats returns the accumulated counters.
func (t *Transport) Stats() Stats { return t.stats }

// DefaultPipelineBlockBytes is the commit granularity used when
// pipelining is forced on (PipelineOn) for a profile that does not
// define its own block size.
const DefaultPipelineBlockBytes = 4 * 1024 * 1024

// PipelineBlock returns the effective pipeline block granularity:
// the profile's block size, or the default when the profile leaves it
// unset (a non-pipelined profile forced on by the scenario knob).
func (t *Transport) PipelineBlock() float64 {
	if t.prof.PipelineBlockBytes > 0 {
		return t.prof.PipelineBlockBytes
	}
	return DefaultPipelineBlockBytes
}

// bus returns node n's copy-stage resource, building it on first use.
func (t *Transport) bus(n int) *sim.PSResource {
	for len(t.membus) <= n {
		t.membus = append(t.membus, nil)
	}
	if t.membus[n] == nil {
		t.membus[n] = sim.NewPSResource(t.c.Eng, fmt.Sprintf("membus%d", n), t.prof.CopyBandwidth, 0)
	}
	return t.membus[n]
}

// zeroCopyEligible reports whether a transfer of bytes/records takes
// the zero-copy path (mean contiguous record size >= threshold).
func (t *Transport) zeroCopyEligible(bytes, records float64) bool {
	if !t.prof.ZeroCopy || bytes <= 0 {
		return false
	}
	rec := bytes
	if records > 0 {
		rec = bytes / records
	}
	return rec >= t.prof.ZeroCopyThresholdBytes
}

// cpu charges sec on node n's CPU, or fires immediately when zero.
func (t *Transport) cpu(n int, sec float64, onDone func()) {
	if sec <= 0 {
		t.c.Eng.Post(0, onDone)
		return
	}
	t.c.Node(n).CPU.Start(sec, onDone)
}

// SendStages runs the sender-side stages (serialize, then copy or
// zero-copy) for a transfer produced on node, firing onDone when the
// data is wire-ready. Counters are updated here.
func (t *Transport) SendStages(node int, bytes, records float64, onDone func()) {
	if !t.Enabled() {
		t.c.Eng.Post(0, onDone)
		return
	}
	p := t.prof
	t.stats.Transfers++
	t.stats.BytesSerialized += bytes
	ser := p.SerializeCPUPerByte*bytes + p.SerializeCPUPerRecord*records
	zc := t.zeroCopyEligible(bytes, records)
	ssp := t.stageSpan("serialize", node, bytes)
	copyStage := func() {
		ssp.EndAt(t.c.Eng.Now())
		if zc {
			t.stats.BytesZeroCopied += bytes
			ssp.Annotate("zerocopy", "1")
			t.c.Eng.Post(0, onDone)
			return
		}
		t.stats.BytesCopied += bytes
		if p.CopyBandwidth <= 0 || bytes <= 0 {
			t.c.Eng.Post(0, onDone)
			return
		}
		done := onDone
		if csp := t.stageSpan("copy", node, bytes); csp != nil {
			csp.DepOn(ssp.SpanID())
			done = func() {
				csp.EndAt(t.c.Eng.Now())
				onDone()
			}
		}
		t.bus(node).Start(bytes, done)
	}
	t.cpu(node, ser, copyStage)
}

// recvStages charges the receiver-side deserialize stage on dst.
func (t *Transport) recvStages(dst int, bytes, records float64, onDone func()) {
	p := t.prof
	deser := p.DeserializeCPUPerByte*bytes + p.DeserializeCPUPerRecord*records
	if dsp := t.stageSpan("deserialize", dst, bytes); dsp != nil {
		inner := onDone
		onDone = func() {
			dsp.EndAt(t.c.Eng.Now())
			inner()
		}
	}
	t.cpu(dst, deser, onDone)
}

// wire moves bytes src->dst on the fabric, holding the pinned send
// buffer for the flight and charging deserialize on arrival.
func (t *Transport) wire(src, dst int, bytes, records float64, onDone func()) {
	t.stats.BytesWire += bytes
	pin := t.prof.PinnedBufferBytes
	if pin > bytes {
		pin = bytes
	}
	var mem *sim.Memory
	if pin > 0 {
		mem = t.c.Node(src).Mem
		mem.MustAlloc(pin)
	}
	wsp := t.stageSpan("wire", src, bytes).Annotate("dst", strconv.Itoa(dst))
	t.c.Net.StartFlow(src, dst, bytes, func() {
		if mem != nil {
			mem.Free(pin)
		}
		wsp.EndAt(t.c.Eng.Now())
		t.recvStages(dst, bytes, records, onDone)
	})
}

// Send runs a full staged transfer src->dst (wire stage always runs,
// loopback included — the mpi/core message path). With the transport
// disabled it degenerates to the bare fabric flow.
func (t *Transport) Send(src, dst int, bytes, records float64, onDone func()) {
	if !t.Enabled() {
		t.c.Net.StartFlow(src, dst, bytes, onDone)
		return
	}
	t.SendStages(src, bytes, records, func() {
		t.wire(src, dst, bytes, records, onDone)
	})
}

// FetchStages runs the receive-path stages for a disk-materialized
// shuffle fetch (mr/rdd): wire only when the source is remote — the
// legacy engines skip the network for node-local fetches — plus
// deserialize on the destination. Sender-side stages for these
// engines are charged at shuffle-write time via SendStages.
func (t *Transport) FetchStages(src, dst int, bytes, records float64, onDone func()) {
	if !t.Enabled() {
		if src != dst {
			t.c.Net.StartFlow(src, dst, bytes, onDone)
		} else {
			t.c.Eng.Post(0, onDone)
		}
		return
	}
	if src != dst {
		t.wire(src, dst, bytes, records, onDone)
		return
	}
	t.recvStages(dst, bytes, records, onDone)
}
