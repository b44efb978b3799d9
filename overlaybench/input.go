package main

import (
	"encoding/binary"
	"math/rand/v2"
)

// Workload shape. Every count here is part of the benchmark's
// definition: changing one changes what the numbers mean.
const (
	workers = 2 // closed-loop workers, one per core of the reference machine

	joinUsers = 64 // join: registered users, split evenly between the workers

	msgPeers = 8 // peer-msg: online peers, split evenly between the workers

	relayMembers = 16   // group-relay: group size
	relaySenders = 2    // members 0 and 1 send, one per worker; they never churn
	relayOffline = 4    // ~a quarter of the 15 other members are offline at any time
	relayPayload = 1024 // bytes per round

	group = "plenary"
)

// Payload size classes of peer-msg: 70% / 20% / 10%. The median lands
// inside the small class and p99 inside the large one, never on a class
// boundary where a percentile could flip classes from run to run.
const (
	sizeSmall = 256
	sizeMid   = 4 << 10
	sizeLarge = 64 << 10
)

// Streams of inputs. Each (seed, stream, worker) triple has its own
// generator, so one worker's inputs do not depend on how far the other
// got in a timed run.
const (
	streamMeasure uint64 = iota + 1
	streamWarm
	streamChurn
)

// opInput is one generated operation. The program sees only what is
// derived from it: who acts, toward whom, and the payload bytes.
type opInput struct {
	ID   uint64 // unique per run; embedded in the payload's first 8 bytes
	From int    // acting peer (join: the user; messaging: the sender)
	To   int    // peer-msg recipient; -1 otherwise
	Size int    // payload bytes; 0 for join
}

// inputs generates one worker's operations for one workload.
type inputs struct {
	kind   string
	seed   uint64
	stream uint64
	worker int
	n      uint64
	rng    *rand.Rand
}

func newInputs(kind string, seed, stream uint64, worker int) *inputs {
	return &inputs{
		kind: kind, seed: seed, stream: stream, worker: worker,
		rng: rand.New(rand.NewPCG(seed, stream<<8|uint64(worker))),
	}
}

// next returns the worker's next operation.
func (in *inputs) next() opInput {
	in.n++
	op := opInput{ID: in.stream<<56 | uint64(in.worker)<<48 | in.n, To: -1}
	switch in.kind {
	case "join":
		// Each worker owns half the users, so a user it picks is never
		// online (the other worker cannot be logging it in).
		per := joinUsers / workers
		op.From = in.worker*per + in.rng.IntN(per)
	case "peer-msg":
		// Each worker drives its own half of the peers, so one op's
		// spans never interleave with the other worker's in any client.
		per := msgPeers / workers
		base := in.worker * per
		op.From = base + in.rng.IntN(per)
		op.To = base + (op.From-base+1+in.rng.IntN(per-1))%per
		switch r := in.rng.IntN(100); {
		case r < 70:
			op.Size = sizeSmall
		case r < 90:
			op.Size = sizeMid
		default:
			op.Size = sizeLarge
		}
	case "group-relay":
		op.From = in.worker
		op.Size = relayPayload
	}
	return op
}

// payload returns the op's plaintext: its ID then seeded bytes. The
// oracle compares every opened plaintext against these bytes.
func payload(seed uint64, op opInput) []byte {
	if op.Size == 0 {
		return nil
	}
	b := make([]byte, op.Size)
	binary.BigEndian.PutUint64(b, op.ID)
	var key [32]byte
	binary.LittleEndian.PutUint64(key[0:], seed)
	binary.LittleEndian.PutUint64(key[8:], op.ID)
	_, _ = rand.NewChaCha8(key).Read(b[8:]) // ChaCha8.Read never fails
	return b
}

// opID reads the op ID back out of an opened plaintext.
func opID(body []byte) (uint64, bool) {
	if len(body) < 8 {
		return 0, false
	}
	return binary.BigEndian.Uint64(body), true
}

// churner generates group-relay's churn schedule: after how many of
// worker 0's rounds the next step runs, and which members swap.
type churner struct {
	rng *rand.Rand
}

func newChurner(seed uint64) *churner {
	return &churner{rng: rand.New(rand.NewPCG(seed, streamChurn<<8))}
}

// cadence is the number of worker-0 rounds before the next churn step.
func (c *churner) cadence() int { return 3 + c.rng.IntN(6) }

// step picks 1 or 2 members to leave from online and as many to return
// from offline. Both slices hold member indices; they are not modified.
func (c *churner) step(online, offline []int) (leave, back []int) {
	k := 1 + c.rng.IntN(2)
	k = min(k, len(online), len(offline))
	for _, i := range c.rng.Perm(len(online))[:k] {
		leave = append(leave, online[i])
	}
	for _, i := range c.rng.Perm(len(offline))[:k] {
		back = append(back, offline[i])
	}
	return leave, back
}

// initialOffline picks the members that start group-relay offline.
func (c *churner) initialOffline() []int {
	var out []int
	for _, i := range c.rng.Perm(relayMembers - relaySenders)[:relayOffline] {
		out = append(out, relaySenders+i)
	}
	return out
}
