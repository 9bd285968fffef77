package main

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"sort"
	"sync"
	"time"

	"speedkit/internal/session"
)

// oracle checks what a run returned, independently of how fast it was.
// Every run feeds it and every run fails if it finds a violation:
//
//   - Δ-atomicity: no page load returns a version older than the newest
//     write acknowledged more than Δ before the load started. The load's
//     version is PageLoad.Version; the acknowledged version is the
//     "now v<N>" of the write reply.
//   - shell bytes: every page body seen at the device transport for one
//     (path, version) hashes the same.
//   - identity: no assembled page contains another user's ID, name or
//     email.
//   - bypass: every /v1/blocks response crossed the edge with
//     X-Edge-Cache: bypass.
//   - ack order: acknowledged versions strictly increase per path.
type oracle struct {
	delta time.Duration
	ids   *identityIndex
	seed  maphash.Seed

	mu                sync.Mutex
	checkedLoads      int
	staleReads        int
	worstBeyondDelta  time.Duration
	acks              map[string][]ackRec // per path, in acknowledgement order
	shells            map[shellKey]uint64
	shellMismatches   int
	identityLeaks     int
	blocksNotBypassed int
	ackOrder          int
	firstProblem      string
}

// loadRec is one completed page load: the version it returned and when
// it started (ns on the run clock).
type loadRec struct {
	version uint64
	start   int64
}

// ackRec is one acknowledged write: the version the reply reported and
// when the reply arrived.
type ackRec struct {
	version uint64
	at      int64
}

type shellKey struct {
	path    string
	version uint64
}

func newOracle(delta time.Duration, users []*session.User) *oracle {
	return &oracle{
		delta:  delta,
		ids:    newIdentityIndex(users),
		seed:   maphash.MakeSeed(),
		shells: make(map[shellKey]uint64),
		acks:   make(map[string][]ackRec),
	}
}

func (o *oracle) problem(format string, args ...any) {
	if o.firstProblem == "" {
		o.firstProblem = fmt.Sprintf(format, args...)
	}
}

// observeLoad checks one completed load: its version against the
// writes acknowledged more than Δ before it started, and its assembled
// body for identities other than the device owner's (own < 0:
// anonymous). The check runs as the load completes: every write it can
// be held to was acknowledged, and recorded, at least Δ earlier.
func (o *oracle) observeLoad(path string, version uint64, start int64, body []byte, own int) {
	foreign, leaked := o.ids.foreign(body, own)
	o.mu.Lock()
	o.checkedLoads++
	if stale, beyond, newest := staleness(o.acks[path], loadRec{version, start}, o.delta); stale {
		o.staleReads++
		o.worstBeyondDelta = max(o.worstBeyondDelta, beyond)
		o.problem("stale read: %s returned v%d although v%d was acknowledged %v before the load (Δ=%v)",
			path, version, newest.version, time.Duration(start-newest.at), o.delta)
	}
	if leaked {
		o.identityLeaks++
		o.problem("identity leak: load of %s for user #%d contains %q", path, own, foreign)
	}
	o.mu.Unlock()
}

// observeShell records one page body returned by the transport.
func (o *oracle) observeShell(path string, version uint64, body []byte) {
	sum := maphash.Bytes(o.seed, body)
	k := shellKey{path: path, version: version}
	o.mu.Lock()
	if prev, ok := o.shells[k]; !ok {
		o.shells[k] = sum
	} else if prev != sum {
		o.shellMismatches++
		o.problem("shell mismatch: %s v%d served with two different bodies", path, version)
	}
	o.mu.Unlock()
}

// observeBlocks records the X-Edge-Cache outcome of one /v1/blocks
// response.
func (o *oracle) observeBlocks(edgeCache string) {
	if edgeCache == "bypass" {
		return
	}
	o.mu.Lock()
	o.blocksNotBypassed++
	o.problem("/v1/blocks crossed the edge as X-Edge-Cache=%q", edgeCache)
	o.mu.Unlock()
}

// observeAck records one acknowledged write. Writes come from one
// caller, so acknowledgements arrive in time order.
func (o *oracle) observeAck(path string, version uint64, at int64) {
	o.mu.Lock()
	acks := o.acks[path]
	if n := len(acks); n > 0 && version <= acks[n-1].version {
		o.ackOrder++
		o.problem("ack order: %s acknowledged v%d after v%d", path, version, acks[n-1].version)
	}
	o.acks[path] = append(acks, ackRec{version: version, at: at})
	o.mu.Unlock()
}

// verdict is the oracle's summary of a run.
type verdict struct {
	checkedLoads      int
	staleReads        int
	worstBeyondDelta  time.Duration
	shellMismatches   int
	identityLeaks     int
	blocksNotBypassed int
	ackOrder          int
	firstProblem      string
}

func (v verdict) ok() bool {
	return v.staleReads == 0 && v.shellMismatches == 0 && v.identityLeaks == 0 &&
		v.blocksNotBypassed == 0 && v.ackOrder == 0
}

// verdict summarizes everything observed so far.
func (o *oracle) verdict() verdict {
	o.mu.Lock()
	defer o.mu.Unlock()
	return verdict{
		checkedLoads:      o.checkedLoads,
		staleReads:        o.staleReads,
		worstBeyondDelta:  o.worstBeyondDelta,
		shellMismatches:   o.shellMismatches,
		identityLeaks:     o.identityLeaks,
		blocksNotBypassed: o.blocksNotBypassed,
		ackOrder:          o.ackOrder,
		firstProblem:      o.firstProblem,
	}
}

// staleness judges one load against its path's acknowledgements (in
// time order): stale if it returned a version older than the newest
// write acknowledged more than delta before it started. beyond is how
// far past Δ the copy was, measured from the first acknowledged write
// the load missed.
func staleness(acks []ackRec, l loadRec, delta time.Duration) (stale bool, beyond time.Duration, newest ackRec) {
	horizon := l.start - int64(delta)
	// Acks strictly before the horizon bind this load.
	k := sort.Search(len(acks), func(i int) bool { return acks[i].at >= horizon })
	if k == 0 || l.version >= acks[k-1].version {
		return false, 0, ackRec{}
	}
	first := sort.Search(k, func(i int) bool { return acks[i].version > l.version })
	return true, time.Duration(l.start-acks[first].at) - delta, acks[k-1]
}

// identityIndex finds user identities (IDs, names, emails) in page
// bodies. Identities of one field share a prefix in any realistic
// population ("u0…", "User …"); the index searches for those prefixes
// and resolves each occurrence against the population by exact,
// word-bounded match, so "User 1" never matches inside "User 17".
type identityIndex struct {
	owner   map[string]int
	classes []identityClass
}

type identityClass struct {
	prefix  []byte
	lengths []int // distinct identity lengths, longest first
}

func newIdentityIndex(users []*session.User) *identityIndex {
	x := &identityIndex{owner: make(map[string]int)}
	fields := []func(*session.User) string{
		func(u *session.User) string { return u.ID },
		func(u *session.User) string { return u.Name },
		func(u *session.User) string { return u.Email },
	}
	for _, field := range fields {
		// Group values by first byte, then share the longest common prefix
		// within each group.
		groups := make(map[byte][]string)
		for i, u := range users {
			v := field(u)
			if v == "" {
				continue
			}
			x.owner[v] = i
			groups[v[0]] = append(groups[v[0]], v)
		}
		for _, vals := range groups {
			prefix := vals[0]
			lens := map[int]bool{}
			for _, v := range vals {
				for !bytes.HasPrefix([]byte(v), []byte(prefix)) {
					prefix = prefix[:len(prefix)-1]
				}
				lens[len(v)] = true
			}
			c := identityClass{prefix: []byte(prefix)}
			for l := range lens {
				c.lengths = append(c.lengths, l)
			}
			sort.Sort(sort.Reverse(sort.IntSlice(c.lengths)))
			x.classes = append(x.classes, c)
		}
	}
	return x
}

func isWordByte(b byte) bool {
	return b >= '0' && b <= '9' || b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z'
}

// foreign reports the first identity in body that belongs to a user
// other than own.
func (x *identityIndex) foreign(body []byte, own int) (string, bool) {
	for _, c := range x.classes {
		for off := 0; off < len(body); {
			i := bytes.Index(body[off:], c.prefix)
			if i < 0 {
				break
			}
			pos := off + i
			off = pos + 1
			if pos > 0 && isWordByte(body[pos-1]) {
				continue
			}
			for _, l := range c.lengths {
				end := pos + l
				if end > len(body) || (end < len(body) && isWordByte(body[end])) {
					continue
				}
				if u, ok := x.owner[string(body[pos:end])]; ok {
					if u != own {
						return string(body[pos:end]), true
					}
					break
				}
			}
		}
	}
	return "", false
}

// checkOracleDetects feeds the oracle one clean history and one history
// per planted violation, and fails unless the clean one passes and each
// planted one is caught exactly once. Every run calls it before
// measuring, so a checker gone blind can never report a clean run.
func checkOracleDetects() error {
	users := session.Population(7, 40)
	var owner, other int = -1, -1
	for i, u := range users {
		if u.LoggedIn && u.Name != "" {
			if owner < 0 {
				owner = i
			} else if other < 0 {
				other = i
			}
		}
	}
	if owner < 0 || other < 0 {
		return fmt.Errorf("oracle self-check: population has no two logged-in users")
	}
	const delta = time.Second
	sec := int64(time.Second)
	clean := func() *oracle {
		o := newOracle(delta, users)
		o.observeAck("/product/p1", 2, 1*sec)
		o.observeAck("/product/p1", 3, 5*sec)
		o.observeShell("/product/p1", 2, []byte("<p>v2</p>"))
		o.observeShell("/product/p1", 2, []byte("<p>v2</p>"))
		// Within Δ of the v3 ack, v2 is still allowed.
		o.observeLoad("/product/p1", 2, 5*sec+sec/2, []byte("<p>Welcome back, "+users[owner].Name+"!</p>"), owner)
		o.observeLoad("/product/p1", 3, 7*sec, []byte("<p>Welcome!</p>"), -1)
		o.observeBlocks("bypass")
		return o
	}
	if v := clean().verdict(); !v.ok() || v.checkedLoads != 2 {
		return fmt.Errorf("oracle self-check: clean history flagged: %+v", v)
	}
	stale := clean()
	stale.observeLoad("/product/p1", 2, 6*sec+1, nil, -1)
	if v := stale.verdict(); v.staleReads != 1 || v.shellMismatches+v.identityLeaks+v.blocksNotBypassed+v.ackOrder != 0 {
		return fmt.Errorf("oracle self-check: planted stale read: %+v", v)
	}
	shell := clean()
	shell.observeShell("/product/p1", 2, []byte("<p>v2'</p>"))
	if v := shell.verdict(); v.shellMismatches != 1 || v.staleReads+v.identityLeaks+v.blocksNotBypassed+v.ackOrder != 0 {
		return fmt.Errorf("oracle self-check: planted shell mismatch: %+v", v)
	}
	leak := clean()
	leak.observeLoad("/", 1, 8*sec, []byte("<p>Welcome back, "+users[other].Name+"!</p>"), owner)
	if v := leak.verdict(); v.identityLeaks != 1 || v.staleReads+v.shellMismatches+v.blocksNotBypassed+v.ackOrder != 0 {
		return fmt.Errorf("oracle self-check: planted identity leak: %+v", v)
	}
	bypass := clean()
	bypass.observeBlocks("hit")
	if v := bypass.verdict(); v.blocksNotBypassed != 1 || !(v.staleReads+v.shellMismatches+v.identityLeaks+v.ackOrder == 0) {
		return fmt.Errorf("oracle self-check: planted cached blocks response: %+v", v)
	}
	order := clean()
	order.observeAck("/product/p1", 3, 6*sec)
	if v := order.verdict(); v.ackOrder != 1 || v.staleReads+v.shellMismatches+v.identityLeaks+v.blocksNotBypassed != 0 {
		return fmt.Errorf("oracle self-check: planted ack reorder: %+v", v)
	}
	return nil
}
