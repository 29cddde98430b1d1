package core

import (
	"bytes"
	"encoding/json"
	"slices"
	"sync"
)

// recordMemo holds the JSON of a fuzzer's iteration and finding records, so
// that however many snapshots of the fuzzer are saved, each record is
// encoded once: a save encodes only the records no earlier save reached and
// copies the rest. Records enter it at the first save that needs them.
//
// It relies on one invariant: record i is the same value in every snapshot
// the fuzzer takes. Shards write f.iters[i] once, in its epoch, and only
// finalize, which no snapshot follows, writes it again; barriers only
// append to f.findings; a snapshot copies both slices, so its records never
// change after its barrier; and a consumer that keeps a finding (triage)
// copies its slices. A state edited after it was taken would save stale
// bytes, so code that edits a state edits a decoded one, which has no memo.
type recordMemo struct {
	mu       sync.Mutex
	iters    encodedRecords
	findings encodedRecords
	// encoded counts the records ever encoded into the memo; tests pin that
	// it ends at one per record.
	encoded int
}

// encodedRecords is the JSON of records [0, len(ends)), each followed by a
// comma: the records [0, n) are buf[:ends[n-1]], the comma after the last
// one excluded.
type encodedRecords struct {
	buf  []byte
	ends []int
}

// Write appends an encoder's output to buf.
func (e *encodedRecords) Write(p []byte) (int, error) {
	e.buf = append(e.buf, p...)
	return len(p), nil
}

// records returns the comma-separated JSON of recs, encoding the records
// the memo does not hold yet. The result is never written again: appends
// only write past it, so it may be read after the memo is unlocked.
func records[T any](m *recordMemo, e *encodedRecords, recs []T) ([]byte, error) {
	enc := json.NewEncoder(e)
	for i := len(e.ends); i < len(recs); i++ {
		// Encode ends each record with a newline, which becomes its comma.
		if err := enc.Encode(&recs[i]); err != nil {
			return nil, err
		}
		e.buf[len(e.buf)-1] = ','
		if i == 0 {
			// Size the buffer from the first record, with an eighth to
			// spare, so a cold save does not copy it as it grows.
			rest := len(recs) - 1
			e.buf = slices.Grow(e.buf, len(e.buf)*rest*9/8)
			e.ends = slices.Grow(e.ends, len(recs))
		}
		e.ends = append(e.ends, len(e.buf)-1)
		m.encoded++
	}
	if len(recs) == 0 {
		return nil, nil
	}
	end := e.ends[len(recs)-1]
	return e.buf[:end:end], nil
}

// JSONPieces returns the state's JSON encoding as pieces, to be written in
// order: the small fields are encoded afresh, the iteration and finding
// records come from the fuzzer's memo (see recordMemo). A decoded state has
// no memo, so every record is encoded. The pieces are read-only. A nil
// state encodes as null.
func (st *EngineState) JSONPieces() ([][]byte, error) {
	if st == nil {
		return [][]byte{[]byte("null")}, nil
	}
	var err error
	field := func(b []byte, key string, v any) []byte {
		if err != nil {
			return b
		}
		enc, e := json.Marshal(v)
		err = e
		return append(append(b, key...), enc...)
	}
	head := field(nil, `{"version":`, st.Version)
	head = field(head, `,"options":`, &st.Options)
	head = field(head, `,"next_iter":`, st.NextIter)
	head = field(head, `,"corpus":`, st.Corpus)
	head = field(head, `,"coverage":`, st.Coverage)
	head = field(head, `,"shards":`, st.Shards)
	tail := field(nil, `,"marks":`, st.Marks)
	tail = field(tail, `,"dead_sinks":`, st.DeadSinks)
	if st.Elapsed != 0 {
		tail = field(tail, `,"elapsed_ns":`, st.Elapsed)
	}
	if err != nil {
		return nil, err
	}
	tail = append(tail, '}')

	m := st.memo
	if m == nil {
		m = &recordMemo{}
	}
	m.mu.Lock()
	findings, ferr := records(m, &m.findings, st.Findings)
	iters, ierr := records(m, &m.iters, st.Iters)
	m.mu.Unlock()
	if ferr != nil {
		return nil, ferr
	}
	if ierr != nil {
		return nil, ierr
	}
	pieces := [][]byte{head, []byte(`,"findings":`)}
	pieces = appendArray(pieces, st.Findings == nil, findings)
	pieces = append(pieces, []byte(`,"iters":`))
	pieces = appendArray(pieces, st.Iters == nil, iters)
	return append(pieces, tail), nil
}

// appendArray appends a record list's pieces: null for a nil slice, else
// the records between brackets.
func appendArray(pieces [][]byte, isNil bool, body []byte) [][]byte {
	if isNil {
		return append(pieces, []byte("null"))
	}
	return append(pieces, []byte("["), body, []byte("]"))
}

// MarshalJSON is JSONPieces joined.
func (st *EngineState) MarshalJSON() ([]byte, error) {
	pieces, err := st.JSONPieces()
	if err != nil {
		return nil, err
	}
	return bytes.Join(pieces, nil), nil
}
