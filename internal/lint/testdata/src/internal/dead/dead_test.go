package dead

import "testing"

// TestTestOnly is TestOnly's only reference; deadexport ignores it.
func TestTestOnly(t *testing.T) {
	if TestOnly() != 2 {
		t.Fatal("TestOnly")
	}
}
