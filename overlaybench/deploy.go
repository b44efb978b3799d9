package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"jxtaoverlay/internal/admission"
	"jxtaoverlay/internal/audit"
	"jxtaoverlay/internal/broker"
	"jxtaoverlay/internal/client"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/membership"
	"jxtaoverlay/internal/relay"
	"jxtaoverlay/internal/relay/wal"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/trace"
	"jxtaoverlay/internal/userdb"
)

// deployment is the whole secure stack in one process: administrator,
// broker with the security extension, admission control, a durable
// relay, an audit journal, and secure clients, all on one simnet fabric
// with the zero-delay local profile (no modeled wire time).
type deployment struct {
	net    *simnet.Network
	admin  *core.Deployment
	br     *broker.Broker
	sec    *core.BrokerSecurity
	rly    *relay.Relay
	adm    *admission.Limiter
	db     *userdb.Store
	aud    *audit.Journal
	trust  *cred.TrustStore
	dir    string
	peers  []*peer
	ledger *ledger
	tr     *tracing // nil in untraced runs

	alerts       atomic.Int64
	alertMu      sync.Mutex
	alertFirst   string
	brokerFrames atomic.Uint64
	authCalls    atomic.Uint64
	traceOn      atomic.Bool

	// presence serializes group-relay churn against rounds: a round
	// holds it shared until its direct recipients opened, a churn step
	// holds it exclusively, so the relay's view of who is online never
	// changes under a round.
	presence sync.RWMutex

	closeOnce sync.Once
}

// peer is one user and its secure client.
type peer struct {
	idx    int
	name   string
	pw     string
	sc     *core.SecureClient
	trust  *cred.TrustStore
	online bool
}

// Limits far above the offered load: admission and relay queues must
// never be what a run measures.
const (
	admissionRate = 1e6
	relayQueueCap = 1 << 14
	syncInterval  = 2 * time.Millisecond
	opTimeout     = 10 * time.Second
)

// newDeployment builds the stack with n registered users (keys are
// generated here) under dir, which it owns until close.
func newDeployment(n int, dir string, tr *tracing) (_ *deployment, err error) {
	d := &deployment{dir: dir, ledger: newLedger(), tr: tr}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	d.net = simnet.NewNetwork(simnet.ProfileLocal)
	if d.admin, err = core.NewDeployment("bench-admin", keys.DefaultRSABits); err != nil {
		return nil, err
	}
	d.db = userdb.NewStore()
	for i := 0; i < n; i++ {
		if err := d.db.Register(userName(i), password(i), group); err != nil {
			return nil, err
		}
	}
	brKP, err := keys.NewKeyPair()
	if err != nil {
		return nil, err
	}
	brCred, err := d.admin.IssueBrokerCredential(brKP.Public(), "bench-broker", time.Hour)
	if err != nil {
		return nil, err
	}
	if d.trust, err = d.admin.TrustStore(); err != nil {
		return nil, err
	}
	d.aud, err = audit.Open(audit.Options{
		Dir: filepath.Join(dir, "audit"), SyncInterval: syncInterval,
		Signer: brKP, Chain: []*cred.Credential{brCred},
	})
	if err != nil {
		return nil, err
	}
	d.br, err = broker.New(broker.Config{
		Name: "bench-broker", PeerID: brCred.Subject, Net: d.net,
		DB:                 broker.AuthenticatorFunc(d.authenticate),
		RequireSecureLogin: true,
	})
	if err != nil {
		return nil, err
	}
	d.sec, err = core.EnableBrokerSecurity(d.br, core.BrokerConfig{
		KeyPair: brKP, Credential: brCred, Trust: d.trust, RequireSignedAdvs: true,
	})
	if err != nil {
		return nil, err
	}
	// Recorder and journal go in before the relay, which inherits both.
	if tr != nil {
		d.br.SetTracer(tr.broker)
	}
	d.br.SetAuditor(d.aud)
	rcfg := core.RelayConfig{Config: relay.Config{
		QueueCap: relayQueueCap,
		WAL:      wal.Options{Dir: filepath.Join(dir, "wal"), SyncInterval: syncInterval},
	}}
	if d.rly, err = core.EnableBrokerRelay(d.br, rcfg); err != nil {
		return nil, err
	}
	d.adm = admission.New(admission.Config{Rate: admissionRate, Burst: admissionRate})
	d.br.EnableAdmission(d.adm)
	d.br.Bus().Subscribe(events.SecurityAlert, d.onAlert)
	brNode := d.br.NodeID()
	d.net.AddTap(func(p simnet.Packet) {
		if p.From == brNode || p.To == brNode {
			d.brokerFrames.Add(1)
		}
	})
	d.peers = make([]*peer, n)
	err = forEachPeer(n, func(i int) (err error) {
		d.peers[i], err = d.newPeer(i)
		return err
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// forEachPeer calls f for peers 0..n-1, spread over the workers; set-up
// is key generation and logins, which are CPU-bound, so it uses the
// same parallelism as the load. It returns the first error.
func forEachPeer(n int, f func(i int) error) error {
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n && errs[w] == nil; i += workers {
				errs[w] = f(i)
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func userName(i int) string { return fmt.Sprintf("user%03d", i) }
func password(i int) string { return fmt.Sprintf("pw-user%03d", i) }

// authenticate is the broker's user database: the userdb store, with
// the call counted and, in traced runs, timed.
func (d *deployment) authenticate(_ context.Context, user, pass string) ([]string, error) {
	d.authCalls.Add(1)
	tr := d.tracer()
	if tr == nil {
		return d.db.Authenticate(user, pass)
	}
	start := time.Now()
	groups, err := d.db.Authenticate(user, pass)
	tr.span(spanAuth, -1, 0, start, time.Now())
	return groups, err
}

func (d *deployment) onAlert(e events.Event) {
	if d.alerts.Add(1) == 1 {
		d.alertMu.Lock()
		d.alertFirst = fmt.Sprintf("%s from %s: %v", e.Type, e.From, e.Payload)
		d.alertMu.Unlock()
	}
}

// newPeer creates user i's secure client; its key pair is generated
// here, at boot time, as in the paper (§4.1).
func (d *deployment) newPeer(i int) (*peer, error) {
	cl, err := client.New(d.net, membership.NewPSE("", keys.DefaultRSABits), userName(i))
	if err != nil {
		return nil, err
	}
	trust, err := d.admin.TrustStore()
	if err != nil {
		cl.Close()
		return nil, err
	}
	sc, err := core.NewSecureClient(cl, trust)
	if err != nil {
		cl.Close()
		return nil, err
	}
	sc.SetAuditor(d.aud)
	cl.Bus().Subscribe(events.SecureMessage, func(e events.Event) { d.ledger.open(i, e.Data) })
	cl.Bus().Subscribe(events.SecurityAlert, d.onAlert)
	return &peer{idx: i, name: userName(i), pw: password(i), sc: sc, trust: trust}, nil
}

// startTracing installs the client recorders and turns the
// benchmark's own spans on. Set-up and warm-up run before it, so they
// leave no spans: the broker records only traces a client minted.
func (d *deployment) startTracing() {
	for i, p := range d.peers {
		p.sc.SetTracer(d.tr.clients[i])
	}
	d.traceOn.Store(true)
}

// tracer returns the span sink, nil until startTracing.
func (d *deployment) tracer() *tracing {
	if !d.traceOn.Load() {
		return nil
	}
	return d.tr
}

// login runs secureConnection then secureLogin.
func (d *deployment) login(ctx context.Context, p *peer) error {
	if err := p.sc.SecureConnection(ctx, d.br.PeerID()); err != nil {
		return fmt.Errorf("%s secureConnection: %w", p.name, err)
	}
	if err := p.sc.SecureLogin(ctx, p.pw); err != nil {
		return fmt.Errorf("%s secureLogin: %w", p.name, err)
	}
	p.online = true
	return nil
}

func (d *deployment) logout(ctx context.Context, p *peer) error {
	p.online = false
	if err := p.sc.Logout(ctx); err != nil {
		return fmt.Errorf("%s logout: %w", p.name, err)
	}
	return nil
}

// close tears the stack down, newest first, so the broker and relay
// still write their shutdown records into the journal.
func (d *deployment) close() {
	d.closeOnce.Do(func() {
		for _, p := range d.peers {
			if p != nil {
				p.sc.Close()
			}
		}
		if d.rly != nil {
			d.rly.Close()
		}
		if d.br != nil {
			d.br.Close()
		}
		if d.sec != nil {
			d.sec.Close()
		}
		if d.aud != nil {
			_ = d.aud.Close() // a failed close shows up in verifyAudit
		}
		if d.net != nil {
			d.net.Close()
		}
	})
}

// verifyAudit closes the stack and walks the journal's hash chain and
// checkpoint signatures against the deployment's trust anchor.
func (d *deployment) verifyAudit() error {
	d.close()
	rep, err := audit.Verify(filepath.Join(d.dir, "audit"), audit.VerifyOptions{Trust: d.trust})
	if err != nil {
		return err
	}
	if !rep.OK() {
		return fmt.Errorf("audit journal: %s", rep.Fault)
	}
	return nil
}

// remove deletes the deployment's WAL and journal.
func (d *deployment) remove() {
	d.close()
	_ = os.RemoveAll(d.dir) // best effort: the work dir is scratch space
}

// tracing holds a traced deployment's recorders: one per client, so a
// trace ID is attributable to the client that minted it, and one for
// the broker and relay. Each recorder has a single ring, so it drops a
// span only once it has recorded more than its capacity.
type tracing struct {
	broker    *trace.Recorder
	clients   []*trace.Recorder
	brokerCap int
	clientCap int

	mu    sync.Mutex
	spans []benchSpan
}

func newTracing(n, clientCap, brokerCap int) *tracing {
	t := &tracing{clientCap: clientCap, brokerCap: brokerCap}
	t.broker = trace.New(trace.Config{Shards: 1, ShardCap: brokerCap, SampleRate: 1, Seed: 1 << 32})
	for i := 0; i < n; i++ {
		// Distinct seeds give each client its own trace-ID sequence.
		t.clients = append(t.clients, trace.New(trace.Config{
			Shards: 1, ShardCap: clientCap, SampleRate: 1, Seed: uint64(i+2) << 32,
		}))
	}
	return t
}

// full reports whether any recorder is close enough to its capacity
// that the next op could overwrite a span; the traced phase stops then.
func (t *tracing) full() bool {
	if n, _ := t.broker.Stats(); n > uint64(t.brokerCap)*7/8 {
		return true
	}
	for _, r := range t.clients {
		if n, _ := r.Stats(); n > uint64(t.clientCap)*7/8 {
			return true
		}
	}
	return false
}

func (t *tracing) dropped() uint64 {
	_, total := t.broker.Stats()
	for _, r := range t.clients {
		_, n := r.Stats()
		total += n
	}
	return total
}

// benchSpan is a span the benchmark records around one of its own calls
// into the program.
type benchSpan struct {
	kind   spanKind
	client int
	seq    uint64
	start  int64
	end    int64
}

type spanKind uint8

const (
	spanConnect spanKind = iota
	spanLogin
	spanLogout
	spanAuth
	spanMsgPeer
	spanRelaySend
	spanDeliveryWait
	numSpanKinds
)

func (t *tracing) span(kind spanKind, client int, seq uint64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, benchSpan{kind: kind, client: client, seq: seq, start: start.UnixNano(), end: end.UnixNano()})
	t.mu.Unlock()
}
