package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
)

//go:embed paper_refs.json
var paperRefsJSON []byte

// paperRef is one value the paper states and the harness already cites.
type paperRef struct {
	ID      string  `json:"id"`
	Exp     string  `json:"exp"`
	Kind    string  `json:"kind"` // "gain" or "seconds"
	Of      string  `json:"of"`
	Over    string  `json:"over,omitempty"`
	Agg     string  `json:"agg,omitempty"` // gain: "each", "max" or "mean"
	Lo      float64 `json:"lo,omitempty"`
	Hi      float64 `json:"hi,omitempty"`
	GB      float64 `json:"gb,omitempty"`
	Seconds float64 `json:"seconds,omitempty"`
	Cite    string  `json:"cite"`
}

// refScore is one reference scored against a repetition's results.
type refScore struct {
	ID    string  `json:"id"`
	Repro float64 `json:"repro"` // reproduced gain in percent, or seconds
	Err   float64 `json:"err"`   // points (gain) or percent (seconds)
}

func loadPaperRefs() ([]paperRef, error) {
	var doc struct {
		Refs []paperRef `json:"refs"`
	}
	if err := json.Unmarshal(paperRefsJSON, &doc); err != nil {
		return nil, fmt.Errorf("paper_refs.json: %w", err)
	}
	return doc.Refs, nil
}

// rangeDistance is the distance from x to the nearer end of [lo, hi].
func rangeDistance(x, lo, hi float64) float64 {
	switch {
	case x < lo:
		return lo - x
	case x > hi:
		return x - hi
	}
	return 0
}

// scorePaper scores every reference the points cover; a reference whose
// points did not run (or failed) is left out.
func scorePaper(refs []paperRef, points []*point) []refScore {
	secs := func(exp, fw string, gb float64) (float64, bool) {
		for _, pt := range points {
			if pt.exp == exp && pt.fw == fw && pt.gb == gb && pt.fails == 0 && pt.figS > 0 {
				return pt.figS, true
			}
		}
		return 0, false
	}
	var out []refScore
	for _, ref := range refs {
		switch ref.Kind {
		case "seconds":
			if s, ok := secs(ref.Exp, ref.Of, ref.GB); ok {
				out = append(out, refScore{ref.ID, s, math.Abs(s-ref.Seconds) / ref.Seconds * 100})
			}
		case "gain":
			var gains []float64
			for _, pt := range points {
				if pt.exp != ref.Exp || pt.fw != ref.Of {
					continue
				}
				of, ok1 := secs(ref.Exp, ref.Of, pt.gb)
				over, ok2 := secs(ref.Exp, ref.Over, pt.gb)
				if ok1 && ok2 {
					gains = append(gains, (1-of/over)*100)
				}
			}
			if len(gains) == 0 {
				continue
			}
			sum, max, errSum := 0.0, math.Inf(-1), 0.0
			for _, g := range gains {
				sum += g
				max = math.Max(max, g)
				errSum += rangeDistance(g, ref.Lo, ref.Hi)
			}
			n := float64(len(gains))
			switch ref.Agg {
			case "max":
				out = append(out, refScore{ref.ID, max, rangeDistance(max, ref.Lo, ref.Hi)})
			case "mean":
				out = append(out, refScore{ref.ID, sum / n, rangeDistance(sum/n, ref.Lo, ref.Hi)})
			default:
				out = append(out, refScore{ref.ID, sum / n, errSum / n})
			}
		}
	}
	return out
}

// paperErrPct is the mean error over the scored references.
func paperErrPct(scores []refScore) float64 {
	if len(scores) == 0 {
		return 0
	}
	s := 0.0
	for _, sc := range scores {
		s += sc.Err
	}
	return s / float64(len(scores))
}
