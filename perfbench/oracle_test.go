package main

import (
	"testing"
	"time"

	"speedkit/internal/session"
)

// The oracle must pass a clean history and catch each planted violation
// exactly once; checkOracleDetects is the same check every run makes
// before it measures.
func TestOracleDetectsPlantedViolations(t *testing.T) {
	if err := checkOracleDetects(); err != nil {
		t.Fatal(err)
	}
}

func TestStaleReadBoundary(t *testing.T) {
	const delta = time.Second
	sec := int64(time.Second)
	acks := []ackRec{{version: 5, at: 10 * sec}}
	cases := []struct {
		name    string
		start   int64
		version uint64
		stale   bool
	}{
		{"inside Δ", 10*sec + sec - 1, 4, false},
		{"exactly Δ", 11 * sec, 4, false},
		{"past Δ", 11*sec + 1, 4, true},
		{"past Δ, current", 11*sec + 1, 5, false},
		{"past Δ, newer", 20 * sec, 6, false},
	}
	for _, c := range cases {
		stale, _, _ := staleness(acks, loadRec{version: c.version, start: c.start}, delta)
		if stale != c.stale {
			t.Errorf("%s: stale=%v, want %v", c.name, stale, c.stale)
		}
	}
}

func TestStaleReadReportsExcessOverDelta(t *testing.T) {
	sec := int64(time.Second)
	acks := []ackRec{
		{version: 2, at: 1 * sec},
		{version: 3, at: 4 * sec},
	}
	// v1 was superseded by the v2 ack at 1 s: at 9 s it is 8 s old,
	// 7 s beyond a 1 s Δ.
	stale, beyond, newest := staleness(acks, loadRec{version: 1, start: 9 * sec}, time.Second)
	if !stale || beyond != 7*time.Second || newest.version != 3 {
		t.Fatalf("stale=%v beyond=%v newest=v%d, want true, 7s, v3", stale, beyond, newest.version)
	}
}

func TestIdentityIndexMatchesWholeIdentities(t *testing.T) {
	users := session.Population(3, 30)
	x := newIdentityIndex(users)
	var a, b int = -1, -1
	for i, u := range users {
		if u.Name != "" {
			if a < 0 {
				a = i
			} else if b < 0 {
				b = i
			}
		}
	}
	cases := []struct {
		name string
		body string
		own  int
		leak bool
	}{
		{"own name", "<p>Welcome back, " + users[a].Name + "!</p>", a, false},
		{"other name", "<p>Welcome back, " + users[b].Name + "!</p>", a, true},
		{"other email", "<a>" + users[b].Email + "</a>", a, true},
		{"other id", "user=" + users[b].ID + "&", a, true},
		{"anonymous sees a name", "<p>" + users[a].Name + "</p>", -1, true},
		{"name prefix of a longer token", "<p>" + users[a].Name + "9999</p>", b, false},
		{"no identity", "<article id=\"p00012\"><p>Product 12</p></article>", a, false},
	}
	for _, c := range cases {
		if _, leak := x.foreign([]byte(c.body), c.own); leak != c.leak {
			t.Errorf("%s: leak=%v, want %v", c.name, leak, c.leak)
		}
	}
}
