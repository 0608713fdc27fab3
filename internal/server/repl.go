package server

// The replication surface: how a primary ships its write-ahead log to
// followers. GET /v1/repl/snapshot serves a full-state bootstrap
// snapshot; GET /v1/repl/stream?from=seq serves journal records from
// the given sequence as chunked NDJSON, long-polling when the follower
// is caught up. Replication ships already-noised releases in their
// journaled wire form, so the surface is privacy-neutral — exposing it
// costs no budget — but it does expose the full release inventory, so
// deployments should restrict it to cluster-internal networks the same
// way they restrict the data directory.

import (
	"errors"
	"net/http"
	"strconv"
	"time"

	"github.com/dphist/dphist"
	"github.com/dphist/dphist/internal/journal"
)

// journalSeqHeader carries the primary's current journal frontier on
// replication responses, so a follower can compute its lag without a
// second round trip.
const journalSeqHeader = "X-Dphist-Journal-Seq"

// defaultReplPollWindow bounds a caught-up stream long-poll. It must
// stay under dphist-server's 30s write timeout, or the parked poll is
// killed mid-air and the follower sees a truncated chunk instead of a
// clean empty one.
const defaultReplPollWindow = 20 * time.Second

// replicationStats assembles the /v1/stats replication block.
func (s *Server) replicationStats() replicationStats {
	rs := replicationStats{Role: "none", AppliedSeq: s.store.AppliedSeq()}
	switch {
	case s.cfg.Follower:
		rs.Role = "follower"
		if s.cfg.ReplStats != nil {
			t := s.cfg.ReplStats()
			rs.State = t.State
			rs.PrimarySeq = t.PrimarySeq
			rs.RecordsApplied = t.RecordsApplied
			rs.Snapshots = t.Snapshots
			rs.Errors = t.Errors
			rs.LastError = t.LastError
			if t.PrimarySeq > rs.AppliedSeq {
				rs.LagRecords = t.PrimarySeq - rs.AppliedSeq
			}
		}
	case s.store.Dir() != "":
		rs.Role = "primary"
	}
	return rs
}

func (s *Server) handleReplSnapshot(w http.ResponseWriter, r *http.Request) {
	data, seq, err := s.store.ReplicationSnapshot()
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, dphist.ErrNotReplicable) {
			status = http.StatusNotFound
		}
		s.writeJSON(w, status, errorResponse{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(journalSeqHeader, strconv.FormatUint(seq, 10))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// handleReplStream serves journal records with seq >= from as NDJSON,
// one journal.Record per line. A caught-up follower is parked on the
// journal's append signal until new records land or the poll window
// expires; either way the response ends and the follower immediately
// re-polls from its new position. A from at or below the compaction
// horizon answers 410 Gone: the records live only in the snapshot now,
// so the follower must bootstrap via /v1/repl/snapshot instead.
func (s *Server) handleReplStream(w http.ResponseWriter, r *http.Request) {
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil || from == 0 {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "from must be a positive sequence number"})
		return
	}
	window := s.cfg.ReplPollWindow
	if window <= 0 {
		window = defaultReplPollWindow
	}
	deadline := time.NewTimer(window)
	defer deadline.Stop()
	// Each line is the record's journal encoding: the bytes json.Encoder
	// would write, without compacting the put payloads once more — Scan
	// validated them when it read the log.
	var line []byte
	flusher, _ := w.(http.Flusher)
	wrote := false
	for {
		// Take the append signal BEFORE reading: an append that lands
		// between the read and the wait closes the already-held channel,
		// so the loop can never park across a missed record.
		sig := s.store.ReplicationSignal()
		recs, err := s.store.ReplicationRead(from)
		if err != nil {
			if wrote {
				return // headers are gone; the follower re-polls and sees the status
			}
			status := http.StatusInternalServerError
			switch {
			case errors.Is(err, journal.ErrCompacted):
				status = http.StatusGone
			case errors.Is(err, dphist.ErrNotReplicable):
				status = http.StatusNotFound
			}
			s.writeJSON(w, status, errorResponse{Error: err.Error()})
			return
		}
		if len(recs) > 0 {
			if !wrote {
				w.Header().Set("Content-Type", "application/x-ndjson")
				w.Header().Set(journalSeqHeader, strconv.FormatUint(s.store.JournalSeq(), 10))
				w.WriteHeader(http.StatusOK)
				wrote = true
			}
			for _, rec := range recs {
				if line, err = journal.AppendJSON(line[:0], rec); err != nil {
					return // unreachable: a record Scan decoded re-encodes
				}
				line = append(line, '\n')
				if _, err := w.Write(line); err != nil {
					return // client went away mid-chunk
				}
			}
			from = recs[len(recs)-1].Seq + 1
			if flusher != nil {
				flusher.Flush()
			}
		}
		select {
		case <-sig:
		case <-r.Context().Done():
			return
		case <-deadline.C:
			if !wrote {
				// A clean empty chunk: caught up, nothing new this window.
				w.Header().Set("Content-Type", "application/x-ndjson")
				w.Header().Set(journalSeqHeader, strconv.FormatUint(s.store.JournalSeq(), 10))
				w.WriteHeader(http.StatusOK)
			}
			return
		}
	}
}
