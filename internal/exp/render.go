package exp

import (
	"encoding/json"
	"io"
)

// WriteJSON renders rows as an indented JSON array, the machine-readable
// form tfluxbench -json emits so perf trajectories can be tracked across
// commits by tooling instead of prose.
func WriteJSON(w io.Writer, rows []Row) error {
	type jsonRow struct {
		Row
		Class string `json:"class"`
	}
	out := make([]jsonRow, len(rows))
	for i, r := range rows {
		out[i] = jsonRow{Row: r, Class: r.Class.String()}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
