package exportguard

import "testing"

func TestTestOnly(t *testing.T) {
	if TestOnly()+(T{}).Recursive(2) != 1 {
		t.Fatal("TestOnly")
	}
}
