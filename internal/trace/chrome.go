package trace

import (
	"bufio"
	"io"
	"sort"
	"strconv"
)

// Chrome trace-event export: the JSON Array Format of the Trace Event
// spec, loadable in Perfetto (ui.perfetto.dev) and chrome://tracing.
// One process (pid) per simulated node, one thread (tid) per slot lane
// (driver and transport activity on their own well-known tids).
//
// The writer emits every record itself — no encoding/json, no map
// iteration — so the output is byte-deterministic for a deterministic
// run: same seed, same bytes. Timestamps are microseconds of simulated
// time with nanosecond resolution.

// WriteChrome writes the whole trace as Chrome trace-event JSON.
func (t *Tracer) WriteChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")
	first := true
	sep := func() {
		if first {
			first = false
			bw.WriteString("\n")
		} else {
			bw.WriteString(",\n")
		}
	}

	// Process/thread metadata first: node tracks sort by pid, and the
	// well-known tids get readable names.
	for _, node := range t.nodesSeen() {
		sep()
		bw.WriteString("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":")
		bw.WriteString(strconv.Itoa(node))
		bw.WriteString(",\"tid\":0,\"args\":{\"name\":\"node")
		bw.WriteString(strconv.Itoa(node))
		bw.WriteString("\"}}")
		for _, tid := range t.tidsSeen(node) {
			name := "slot" + strconv.Itoa(tid)
			switch tid {
			case TidDriver:
				name = "driver"
			case TidTransport:
				name = "transport"
			}
			sep()
			bw.WriteString("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":")
			bw.WriteString(strconv.Itoa(node))
			bw.WriteString(",\"tid\":")
			bw.WriteString(strconv.Itoa(tid))
			bw.WriteString(",\"args\":{\"name\":\"")
			bw.WriteString(name)
			bw.WriteString("\"}}")
		}
	}

	t.Each(func(sp *Span) {
		sep()
		bw.WriteString("{\"ph\":\"X\",\"name\":")
		writeJSONString(bw, sp.Name)
		bw.WriteString(",\"cat\":")
		writeJSONString(bw, sp.Cat)
		bw.WriteString(",\"pid\":")
		bw.WriteString(strconv.Itoa(sp.Node))
		bw.WriteString(",\"tid\":")
		bw.WriteString(strconv.Itoa(sp.Tid))
		bw.WriteString(",\"ts\":")
		writeMicros(bw, sp.Start)
		bw.WriteString(",\"dur\":")
		writeMicros(bw, sp.End-sp.Start)
		bw.WriteString(",\"args\":{\"id\":\"")
		bw.WriteString(strconv.FormatUint(sp.ID, 10))
		bw.WriteString("\"")
		if sp.Parent != 0 {
			bw.WriteString(",\"parent\":\"")
			bw.WriteString(strconv.FormatUint(sp.Parent, 10))
			bw.WriteString("\"")
		}
		if len(sp.Deps) > 0 {
			bw.WriteString(",\"deps\":\"")
			for i, d := range sp.Deps {
				if i > 0 {
					bw.WriteString(",")
				}
				bw.WriteString(strconv.FormatUint(d, 10))
			}
			bw.WriteString("\"")
		}
		writeArgs(bw, sp.Args)
		bw.WriteString("}}")
	})

	for _, in := range t.Instants() {
		sep()
		bw.WriteString("{\"ph\":\"i\",\"s\":\"p\",\"name\":")
		writeJSONString(bw, in.Name)
		bw.WriteString(",\"cat\":")
		writeJSONString(bw, in.Cat)
		bw.WriteString(",\"pid\":")
		bw.WriteString(strconv.Itoa(in.Node))
		bw.WriteString(",\"tid\":0,\"ts\":")
		writeMicros(bw, in.T)
		bw.WriteString(",\"args\":{")
		firstArg := true
		for _, a := range in.Args {
			if !firstArg {
				bw.WriteString(",")
			}
			firstArg = false
			writeJSONString(bw, a.Key)
			bw.WriteString(":")
			writeJSONString(bw, a.Val)
		}
		bw.WriteString("}}")
	}

	for _, c := range t.Counters() {
		sep()
		bw.WriteString("{\"ph\":\"C\",\"name\":")
		writeJSONString(bw, c.Name)
		bw.WriteString(",\"pid\":")
		bw.WriteString(strconv.Itoa(c.Node))
		bw.WriteString(",\"ts\":")
		writeMicros(bw, c.T)
		bw.WriteString(",\"args\":{\"value\":")
		writeFloat(bw, c.Value)
		bw.WriteString("}}")
	}

	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// nodesSeen returns every node that recorded anything, ascending.
func (t *Tracer) nodesSeen() []int {
	seen := map[int]bool{}
	t.Each(func(sp *Span) { seen[sp.Node] = true })
	for _, in := range t.Instants() {
		seen[in.Node] = true
	}
	for _, c := range t.Counters() {
		seen[c.Node] = true
	}
	out := make([]int, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// tidsSeen returns every tid spans recorded on node, ascending.
func (t *Tracer) tidsSeen(node int) []int {
	seen := map[int]bool{}
	t.Each(func(sp *Span) {
		if sp.Node == node {
			seen[sp.Tid] = true
		}
	})
	out := make([]int, 0, len(seen))
	for tid := range seen {
		out = append(out, tid)
	}
	sort.Ints(out)
	return out
}

// writeArgs appends span args inside an already-open args object.
func writeArgs(bw *bufio.Writer, args []Arg) {
	for _, a := range args {
		bw.WriteString(",")
		writeJSONString(bw, a.Key)
		bw.WriteString(":")
		writeJSONString(bw, a.Val)
	}
}

// writeMicros writes simulated seconds as microseconds with fixed
// three-decimal (nanosecond) resolution — fixed-point, so formatting is
// locale- and platform-independent.
func writeMicros(bw *bufio.Writer, sec float64) {
	bw.WriteString(strconv.FormatFloat(sec*1e6, 'f', 3, 64))
}

// writeFloat writes a float with the shortest round-trip formatting.
func writeFloat(bw *bufio.Writer, v float64) {
	bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
}

// writeJSONString writes s as a JSON string literal, escaping the
// characters the grammar requires (names here are ASCII identifiers,
// but the escaper is complete for control characters, quotes and
// backslashes).
func writeJSONString(bw *bufio.Writer, s string) {
	bw.WriteByte('"')
	for i := 0; i < len(s); i++ {
		b := s[i]
		switch {
		case b == '"':
			bw.WriteString(`\"`)
		case b == '\\':
			bw.WriteString(`\\`)
		case b < 0x20:
			const hex = "0123456789abcdef"
			bw.WriteString(`\u00`)
			bw.WriteByte(hex[b>>4])
			bw.WriteByte(hex[b&0xf])
		default:
			bw.WriteByte(b)
		}
	}
	bw.WriteByte('"')
}
