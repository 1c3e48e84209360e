package pkg

import "testing"

func TestLiveAndDead(t *testing.T) {
	if Live()+Dead() != 3 {
		t.Fatal("fixture arithmetic")
	}
}
