package core

// EncodedRecords is how many records the fuzzer that took st has encoded
// into its memo over its life (0 for a decoded state).
func EncodedRecords(st *EngineState) int {
	if st.memo == nil {
		return 0
	}
	st.memo.mu.Lock()
	defer st.memo.mu.Unlock()
	return st.memo.encoded
}
