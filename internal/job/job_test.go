package job

import (
	"bytes"
	"compress/gzip"
	"testing"

	"github.com/datampi/datampi-go/internal/cluster"
	"github.com/datampi/datampi-go/internal/dfs"
	"github.com/datampi/datampi-go/internal/kv"
)

func TestRecordsText(t *testing.T) {
	recs, inflated, err := Records(Text, []byte("alpha\nbeta\ngamma"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || string(recs[1].Value) != "beta" {
		t.Fatalf("records = %v", recs)
	}
	if inflated != len("alpha\nbeta\ngamma") {
		t.Fatalf("inflated = %d", inflated)
	}
}

func TestRecordsSeq(t *testing.T) {
	pairs := []kv.Pair{{Key: []byte("k1"), Value: []byte("v1")}, {Key: []byte("k2"), Value: []byte("v2")}}
	recs, _, err := Records(Seq, kv.EncodeAll(pairs))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || string(recs[0].Key) != "k1" {
		t.Fatalf("records = %v", recs)
	}
}

func TestRecordsSeqGzip(t *testing.T) {
	pairs := []kv.Pair{{Key: []byte("hello"), Value: []byte("world")}}
	raw := kv.EncodeAll(pairs)
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(raw)
	zw.Close()
	recs, inflated, err := Records(SeqGzip, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Value) != "world" {
		t.Fatalf("records = %v", recs)
	}
	if inflated != len(raw) {
		t.Fatalf("inflated = %d, want %d", inflated, len(raw))
	}
}

func TestRecordsBadGzip(t *testing.T) {
	if _, _, err := Records(SeqGzip, []byte("not gzip")); err == nil {
		t.Fatal("expected error for invalid gzip data")
	}
}

func TestNormalizeDefaults(t *testing.T) {
	s := Spec{}
	s.Normalize()
	if s.Reducers != 1 || s.Part == nil || s.Reduce == nil {
		t.Fatalf("defaults not applied: %+v", s)
	}
	if s.MapCPUFactor != 1 {
		t.Fatal("map cpu factor not defaulted")
	}
	if s.SaturatingIntermediate {
		t.Fatal("no combiner should mean non-saturating")
	}
	s2 := Spec{Combine: kv.SumCombiner}
	s2.Normalize()
	if !s2.SaturatingIntermediate {
		t.Fatal("combiner should imply saturating intermediates")
	}
}

func TestEmitScale(t *testing.T) {
	c := cluster.New(cluster.DefaultHardware())
	fs := dfs.New(c, dfs.Config{BlockSize: cluster.MB, Replication: 3, Scale: 64, Seed: 1})
	linear := Spec{FS: fs}
	if got := linear.EmitScale(); got != 64 {
		t.Fatalf("linear EmitScale = %v, want 64", got)
	}
	sat := Spec{FS: fs, SaturatingIntermediate: true}
	if got := sat.EmitScale(); got != 1 {
		t.Fatalf("saturating EmitScale = %v, want 1", got)
	}
}

func TestRunSequentialMatchesByHand(t *testing.T) {
	c := cluster.New(cluster.DefaultHardware())
	fs := dfs.New(c, dfs.Config{BlockSize: 64, Replication: 3, Scale: 1, Seed: 1})
	in := fs.PreloadAligned("/in", []byte("a b a\nb b c\n"), '\n')
	spec := Spec{
		FS: fs, Input: in, InputFormat: Text, Reducers: 2,
		Map: func(key, value []byte, emit Emit) {
			for _, w := range bytes.Fields(value) {
				emit(w, []byte("1"))
			}
		},
		Reduce: kv.SumReducer,
	}
	out, err := RunSequential(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, p := range out {
		got[string(p.Key)] = string(p.Value)
	}
	want := map[string]string{"a": "2", "b": "3", "c": "1"}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("got[%s]=%s want %s (%v)", k, got[k], v, got)
		}
	}
}

func TestEncodeTextOutputAndReadBack(t *testing.T) {
	c := cluster.New(cluster.DefaultHardware())
	fs := dfs.New(c, dfs.Config{BlockSize: 32, Replication: 3, Scale: 1, Seed: 1})
	pairs := []kv.Pair{
		{Key: []byte("k1"), Value: []byte("v1")},
		{Key: []byte("justkey")},
	}
	fs.Preload("/out/part-0", EncodeTextOutput(pairs))
	back := ReadTextOutput(fs, "/out/")
	if len(back) != 2 {
		t.Fatalf("read %d pairs", len(back))
	}
	if string(back[0].Key) != "k1" || string(back[0].Value) != "v1" {
		t.Fatalf("pair 0 = %v", back[0])
	}
	if string(back[1].Key) != "justkey" || len(back[1].Value) != 0 {
		t.Fatalf("pair 1 = %v", back[1])
	}
}
