package applog

// SetMaxLine lowers Open's line cap for a test and returns the undo.
func SetMaxLine(n int) (restore func()) {
	old := maxLine
	maxLine = n
	return func() { maxLine = old }
}
