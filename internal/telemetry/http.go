package telemetry

import (
	"net/http"
	"sort"
)

// Handler exposes registries over HTTP:
//
//	GET /metrics — the registries' snapshots as one JSON snapshot
//	GET /trace   — the current trace ring as a Chrome trace_event file
//
// Callers mount it on their own mux (trio-top adds net/http/pprof next
// to it behind its -http flag, and serves the default registry beside
// the controller's).
func Handler(regs ...*Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var s Snap
		for _, r := range regs {
			rs := r.Snapshot()
			s.TakenUnixNano = rs.TakenUnixNano
			s.Counters = append(s.Counters, rs.Counters...)
			s.Histograms = append(s.Histograms, rs.Histograms...)
		}
		sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
		sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
		if err := s.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := WriteChromeTrace(w, TraceSnapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	return mux
}
