package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bf"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pairing"
	"repro/internal/repl"
	"repro/internal/sem"
	"repro/internal/shard"
)

// The fleet is what cmd/semd builds for each daemon, run in one process:
// a journal, a replication follower (and on the ring's designated shard, the
// leader), the IBE and GDH SEM backends over the journal's registry, and a
// sem.Server on a loopback listener. Clients reach it only over TCP with
// the v2 protocol, through a sem.ShardedClient.

const (
	shards   = 2
	replicas = 2
	poolSize = 1
	// replDialTimeout matches cmd/semd's bound on a leader→follower dial.
	replDialTimeout = 5 * time.Second
	// replRetry is the leader's reconnect cadence (the repl default).
	replRetry = 500 * time.Millisecond
)

type node struct {
	addr     string
	journal  *core.Journal
	follower *repl.Follower
	ibe      *core.IBESEM
	srv      *sem.Server
	metrics  *obs.Registry // nil unless traced
	served   chan error
}

type fleet struct {
	pp      *pairing.Params
	dir     string
	nodes   []*node
	leader  *repl.Leader
	lead    *node
	sc      *sem.ShardedClient
	client  *obs.Registry // nil unless traced
	visible *visibility
}

// startFleet starts the shards over journals in dir. With traced set, every
// daemon and the client carry an obs registry (the end-to-end run has none).
func startFleet(pp *pairing.Params, pub *bf.PublicParams, dir string, traced bool) (f *fleet, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f = &fleet{pp: pp, dir: dir, visible: newVisibility(shards)}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	// Bind first: the ring's leader designation depends on the address set.
	lns := make([]net.Listener, shards)
	addrs := make([]string, shards)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				_ = l.Close()
			}
			return nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	ring, err := shard.New(addrs, 0)
	if err != nil {
		return nil, err
	}
	leaderAddr := ring.Leader()
	var peers []string
	for _, a := range addrs {
		if a != leaderAddr {
			peers = append(peers, a)
		}
	}
	// Followers serve first, so the leader's first dial finds them.
	var order []int
	for i, a := range addrs {
		if a != leaderAddr {
			order = append(order, i)
		}
	}
	for i, a := range addrs {
		if a == leaderAddr {
			order = append(order, i)
		}
	}
	for _, i := range order {
		n := &node{addr: addrs[i]}
		if traced {
			n.metrics = obs.NewRegistry()
		}
		if n.journal, err = core.OpenJournal(filepath.Join(dir, fmt.Sprintf("shard%d.jsonl", i))); err != nil {
			_ = lns[i].Close()
			return nil, err
		}
		f.nodes = append(f.nodes, n)
		if traced {
			n.journal.Instrument(n.metrics)
		}
		f.visible.watch(len(f.nodes)-1, n.journal.Registry())
		n.follower = repl.NewFollower(n.journal)
		if traced {
			n.follower.Instrument(n.metrics)
		}
		var leader *repl.Leader
		if n.addr == leaderAddr {
			leader, err = repl.NewLeader(repl.LeaderConfig{
				Journal:       n.journal,
				Epoch:         1,
				Peers:         peers,
				Dial:          sem.ReplDialer(replDialTimeout),
				Metrics:       n.metrics,
				RetryInterval: replRetry,
			})
			if err != nil {
				_ = lns[i].Close()
				return nil, err
			}
			f.leader, f.lead = leader, n
		}
		reg := n.journal.Registry()
		n.ibe = core.NewIBESEM(pub, reg)
		n.srv, err = sem.NewServer(sem.Config{
			Registry:      reg,
			IBE:           n.ibe,
			GDH:           core.NewGDHSEM(pp, reg),
			Journal:       n.journal,
			Pairing:       pp,
			Repl:          n.follower,
			Leader:        leader,
			Metrics:       n.metrics,
			AllowRegister: true,
		})
		if err != nil {
			_ = lns[i].Close()
			return nil, err
		}
		n.served = make(chan error, 1)
		go func(srv *sem.Server, ln net.Listener, done chan<- error) { done <- srv.Serve(ln) }(n.srv, lns[i], n.served)
	}
	if traced {
		f.client = obs.NewRegistry()
	}
	f.sc, err = sem.NewShardedClient(addrs, pp, sem.ShardedConfig{
		Replicas: replicas,
		Pool:     sem.PoolConfig{Size: poolSize},
		Metrics:  f.client,
	})
	if err != nil {
		return nil, err
	}
	if f.sc.LeaderAddr() != leaderAddr {
		return nil, fmt.Errorf("client ring designates %s, fleet leads on %s", f.sc.LeaderAddr(), leaderAddr) //cryptolint:public (shard addresses are deployment metadata)
	}
	if err := f.sc.Ping(); err != nil {
		return nil, err
	}
	// Wait for every follower to adopt the leader's epoch (first contact is
	// a snapshot install): before that, a follower would take the client's
	// revocation hint as a direct mutation and fork its log.
	deadline := time.Now().Add(10 * time.Second)
	for _, n := range f.nodes {
		for n.journal.Epoch() < 1 {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("follower %s did not adopt the leader's epoch", n.addr)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return f, nil
}

// close stops the client, the leader, the servers and the journals, and
// removes the journal directory.
func (f *fleet) close() {
	if f.sc != nil {
		_ = f.sc.Close()
	}
	if f.leader != nil {
		_ = f.leader.Close()
	}
	for _, n := range f.nodes {
		if n.srv != nil {
			_ = n.srv.Close()
			<-n.served
		}
	}
	for _, n := range f.nodes {
		_ = n.journal.Close()
	}
	_ = os.RemoveAll(f.dir)
}

// converged checks, over the wire like `semload -assert-converged`, that
// every shard reports the same revocation set as the leader, polling until
// the window closes to give catch-up replication its chance.
func (f *fleet) converged(window time.Duration) error {
	clients := make([]*sem.Client, len(f.nodes))
	for i, n := range f.nodes {
		c, err := sem.Dial(n.addr, f.pp, 3*time.Second)
		if err != nil {
			return fmt.Errorf("dial shard %s: %w", n.addr, err)
		}
		defer func() { _ = c.Close() }()
		clients[i] = c
	}
	deadline := time.Now().Add(window)
	for {
		sets := make([]string, len(clients))
		var lead string
		for i, c := range clients {
			entries, err := c.ListRevoked()
			if err != nil {
				return fmt.Errorf("list revoked on %s: %w", f.nodes[i].addr, err)
			}
			ids := make([]string, len(entries))
			for j, e := range entries {
				ids[j] = e.ID
			}
			sort.Strings(ids)
			sets[i] = strings.Join(ids, ",")
			if f.nodes[i] == f.lead {
				lead = sets[i]
			}
		}
		agreed := true
		for _, s := range sets {
			agreed = agreed && s == lead
		}
		if agreed {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("shards diverged from the leader after %v: %q", window, sets)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// visibility records, through each shard registry's OnRevoke/OnUnrevoke
// listeners, when a mutation of an identity became visible on every shard.
type visibility struct {
	shards int
	mu     sync.Mutex
	wait   map[visKey]*visWait
}

type visKey struct {
	id     string
	revoke bool
}

type visWait struct {
	seen   []time.Time // per shard; zero until visible there
	left   int
	allSet chan struct{}
}

func newVisibility(shards int) *visibility {
	return &visibility{shards: shards, wait: make(map[visKey]*visWait)}
}

// watch subscribes to shard i's registry; call before the registry is
// shared with a server.
func (v *visibility) watch(i int, reg *core.Registry) {
	reg.OnRevoke(func(id string) { v.saw(i, visKey{id, true}) })
	reg.OnUnrevoke(func(id string) { v.saw(i, visKey{id, false}) })
}

func (v *visibility) saw(shard int, k visKey) {
	now := time.Now()
	v.mu.Lock()
	defer v.mu.Unlock()
	w := v.wait[k]
	if w == nil || !w.seen[shard].IsZero() {
		return
	}
	w.seen[shard] = now
	if w.left--; w.left == 0 {
		close(w.allSet)
	}
}

// expect arms a wait for the next mutation of id; call before issuing it.
func (v *visibility) expect(id string, revoke bool) *visWait {
	w := &visWait{seen: make([]time.Time, v.shards), left: v.shards, allSet: make(chan struct{})}
	v.mu.Lock()
	v.wait[visKey{id, revoke}] = w
	v.mu.Unlock()
	return w
}

// await blocks until the mutation is visible on every shard and returns
// the per-shard times, or fails after timeout.
func (v *visibility) await(id string, revoke bool, w *visWait, timeout time.Duration) ([]time.Time, error) {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-w.allSet:
	case <-t.C:
		return nil, fmt.Errorf("mutation of %s not visible on every shard after %v", id, timeout) //cryptolint:public (identities are public protocol metadata)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	delete(v.wait, visKey{id, revoke})
	return append([]time.Time(nil), w.seen...), nil
}
