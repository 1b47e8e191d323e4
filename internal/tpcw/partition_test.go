package tpcw

import "testing"

func TestSessionKey(t *testing.T) {
	if SessionKey(42) != "session/42" {
		t.Errorf("SessionKey(42) = %q", SessionKey(42))
	}
}
