package cluster

import (
	"encoding/json"
	"fmt"

	"conprobe/internal/wal"
)

// termRecord is the persisted (currentTerm, votedFor) pair. It is
// appended to its own WAL (term.log) and fsynced BEFORE the node sends
// a vote or campaigns in a new term — the persist-before-respond
// invariant. A crash between persist and respond loses nothing: the
// vote was never observed, and recovery re-reads the last record, so a
// node can never grant two different candidates the same term. A torn
// final record (crash mid-write) is truncated by wal.Open, which is
// also safe for the same reason: a vote whose record tore was never
// answered, so re-granting it after recovery is a retry, not a double
// vote.
type termRecord struct {
	Term     uint64 `json:"t"`
	VotedFor string `json:"v,omitempty"`
}

// termStore persists termRecords. Nil receiver means memory-only (no
// DataDir): persistence is a no-op and every restart forgets the term,
// which is acceptable only for tests and single-node play deployments.
type termStore struct {
	log *wal.Log
}

// openTermStore replays term.log at path and returns the store plus the
// last persisted record. The log is compacted on open — older records
// are superseded by the last one — so the file stays O(1) records
// across restarts. Compaction atomically rewrites the log as that one
// record: a failure or crash mid-compaction leaves the old records,
// never an empty, clean-looking log that has forgotten a persisted vote.
//
// With opts.Quarantine set, mid-log corruption does not fail the boot:
// the damaged file becomes a .corrupt sidecar, the store reopens empty
// and quarantined is true — the caller must then treat every past vote
// as potentially forgotten (the non-granting boot window).
func openTermStore(path string, opts wal.Options) (ts *termStore, last termRecord, quarantined bool, err error) {
	log, rep, err := wal.Open(path, opts)
	if err != nil {
		return nil, termRecord{}, false, fmt.Errorf("cluster: replaying term log: %w", err)
	}
	for _, raw := range rep.Records {
		var rec termRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			log.Close()
			return nil, termRecord{}, false, fmt.Errorf("cluster: decoding term record: %w", err)
		}
		// Records are append-ordered; the last one wins. Guard against a
		// regressing record anyway — terms only move forward.
		if rec.Term >= last.Term {
			last = rec
		}
	}
	if len(rep.Records) > 1 {
		raw, err := json.Marshal(last)
		if err == nil {
			err = log.Rewrite([][]byte{raw})
		}
		if err != nil {
			log.Close()
			return nil, termRecord{}, false, fmt.Errorf("cluster: compacting term log: %w", err)
		}
	}
	return &termStore{log: log}, last, rep.Quarantined, nil
}

// save appends rec and fsyncs it. It MUST return before the node acts
// on the new term or vote in any externally visible way.
func (s *termStore) save(rec termRecord) error {
	if s == nil || s.log == nil {
		return nil
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := s.log.Append(raw); err != nil {
		return fmt.Errorf("cluster: persisting term %d: %w", rec.Term, err)
	}
	return nil
}

// close releases the underlying log.
func (s *termStore) close() error {
	if s == nil || s.log == nil {
		return nil
	}
	err := s.log.Close()
	s.log = nil
	return err
}
