package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
)

// maxSpanOps bounds the span file: the first this-many ops of the traced
// window are written out, all of them are aggregated.
const maxSpanOps = 2000

// spanLine is one span as written to out/spans-<workload>.jsonl: spans of
// one op share Op, and Parent names the span that caused this one.
type spanLine struct {
	Op      int    `json:"op"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"` // since the window opened
	EndNS   int64  `json:"end_ns"`
}

// spanLines renders the decided ops among the first maxOps of a traced
// window as spans (the tiling windowSummary.spans aggregates).
func spanLines(win *window, maxOps int) []spanLine {
	var out []spanLine
	for i, r := range win.recs {
		if i == maxOps {
			break
		}
		if r.fail != opOK {
			continue
		}
		b := r.spanBounds()
		out = append(out, spanLine{Op: i, Name: "client.op", StartNS: b[0] - win.start, EndNS: b[5] - win.start})
		for c, name := range spanNames {
			out = append(out, spanLine{Op: i, Name: name, Parent: "client.op", StartNS: b[c] - win.start, EndNS: b[c+1] - win.start})
		}
	}
	return out
}

// writeSpans writes one JSON object per line; it is called only after all
// timing has ended.
func writeSpans(dir, workload string, spans []spanLine) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "spans-"+workload+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
