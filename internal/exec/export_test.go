package exec

// SetMaxMarkWords sets the cap on the invariant-leaf bitmap, so that a test
// graph's leaves can exceed it, and returns a func restoring the old cap.
func SetMaxMarkWords(n int) (restore func()) {
	old := maxMarkWords
	maxMarkWords = n
	return func() { maxMarkWords = old }
}
