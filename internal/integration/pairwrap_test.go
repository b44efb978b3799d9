// Pair key-wrap cost end-to-end: a sender reuses one KEK per recipient
// key across every secure send path, so the recipient pays one RSA
// unwrap per KEK, not one per message.
package integration_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"jxtaoverlay/internal/broker"
	"jxtaoverlay/internal/client"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/membership"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/telemetry"
	"jxtaoverlay/internal/userdb"
	"jxtaoverlay/internal/waituntil"
)

// TestPairWrapUnwrapCounts pins the RSA unwraps at the recipient:
//   - 50 relayed slices, 50 full-wire rounds and 50 secureMsgPeer sends
//     from alice to bob cost bob exactly 1;
//   - a forced KEK rotation at alice costs bob exactly 1 more;
//   - bob restarted with his key reloaded from PEM, draining slices that
//     waited in the relay WAL, pays 1 per distinct KEK among them.
func TestPairWrapUnwrapCounts(t *testing.T) {
	const perPath = 50
	net := simnet.NewNetwork(simnet.LinkProfile{})
	defer net.Close()

	dep, err := core.NewDeployment("admin", 0)
	if err != nil {
		t.Fatal(err)
	}
	db := userdb.NewStoreIter(4)
	db.Register("alice", "pw", "g")
	db.Register("bob", "pw", "g")
	brKP, _ := keys.NewKeyPair()
	brCred, err := dep.IssueBrokerCredential(brKP.Public(), "pair-broker", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	trust, _ := dep.TrustStore()
	br, err := broker.New(broker.Config{
		Name: "pair-broker", PeerID: brCred.Subject, Net: net,
		DB: broker.AuthenticatorFunc(func(_ context.Context, u, p string) ([]string, error) {
			return db.Authenticate(u, p)
		}),
		RequireSecureLogin: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	if _, err := core.EnableBrokerSecurity(br, core.BrokerConfig{
		KeyPair: brKP, Credential: brCred, Trust: trust, RequireSignedAdvs: true,
	}); err != nil {
		t.Fatal(err)
	}
	cfg := core.RelayConfig{}
	cfg.WAL.Dir = t.TempDir()
	rly, err := core.EnableBrokerRelay(br, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rly.Close()

	bobStore := t.TempDir() // bob's PSE keystore: the restarted bob reloads his key from it
	// join builds a secure client and logs it in; watch (may be nil) is
	// called before the login, so an event collector sees the drain.
	join := func(alias string, pse *membership.PSE, watch func(*client.Client)) (*core.SecureClient, *client.Client) {
		cl, err := client.New(net, pse, alias)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cl.Close)
		clTrust, _ := dep.TrustStore()
		sc, err := core.NewSecureClient(cl, clTrust)
		if err != nil {
			t.Fatal(err)
		}
		if watch != nil {
			watch(cl)
		}
		ctx := ctxT(t, 30*time.Second)
		if err := sc.SecureConnection(ctx, br.PeerID()); err != nil {
			t.Fatalf("%s secureConnection: %v", alias, err)
		}
		if err := sc.SecureLogin(ctx, "pw"); err != nil {
			t.Fatalf("%s secureLogin: %v", alias, err)
		}
		return sc, cl
	}
	alice, _ := join("alice", membership.NewPSE("", 0), nil)
	var skew atomic.Int64 // alice's KEK clock offset; advancing it forces a rotation
	alice.Identity().Keys.SetClock(func() time.Time { return time.Now().Add(time.Duration(skew.Load())) })
	rotate := func() { skew.Add(int64(keys.PairKEKLifetime + time.Second)) }

	reg := telemetry.New()
	var bobEvents *events.Collector
	bob, bobClient := join("bob", membership.NewPSE(bobStore, 0), func(cl *client.Client) {
		cl.BindTelemetry(reg)
		bobEvents = events.NewCollector(cl.Bus())
	})
	bobKeys := bob.Identity().Keys
	received := func(col *events.Collector, want int) {
		t.Helper()
		if !waituntil.True(20*time.Second, func() bool { return len(col.OfType(events.SecureMessage)) >= want }) {
			t.Fatalf("recipient opened %d messages, want %d", len(col.OfType(events.SecureMessage)), want)
		}
	}

	ctx := ctxT(t, 60*time.Second)
	for i := 0; i < perPath; i++ {
		if _, _, err := alice.SecureMsgPeerGroupRelay(ctx, "g", fmt.Sprintf("relayed %d", i)); err != nil {
			t.Fatal(err)
		}
		if n, err := alice.SecureMsgPeerGroup(ctx, "g", fmt.Sprintf("round %d", i)); err != nil || n != 1 {
			t.Fatalf("full-wire round reached %d peers: %v", n, err)
		}
		if err := alice.SecureMsgPeer(ctx, bob.PeerID(), "g", fmt.Sprintf("direct %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	received(bobEvents, 3*perPath)
	if got := bobKeys.UnwrapCalls(); got != 1 {
		t.Fatalf("%d messages over three paths cost bob %d RSA unwraps, want 1", 3*perPath, got)
	}
	if v, _ := reg.Get(keys.MetricUnwrapRSA); v != 1 {
		t.Fatalf("%s = %v, want 1", keys.MetricUnwrapRSA, v)
	}
	if v, _ := reg.Get(keys.MetricUnwrapCacheHits); v != 3*perPath-1 {
		t.Fatalf("%s = %v, want %d", keys.MetricUnwrapCacheHits, v, 3*perPath-1)
	}

	rotate()
	if err := alice.SecureMsgPeer(ctx, bob.PeerID(), "g", "after rotation"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := alice.SecureMsgPeerGroupRelay(ctx, "g", "after rotation, relayed"); err != nil {
		t.Fatal(err)
	}
	received(bobEvents, 3*perPath+2)
	if got := bobKeys.UnwrapCalls(); got != 2 {
		t.Fatalf("a forced rotation left bob at %d RSA unwraps, want 2", got)
	}

	// Bob goes away; alice's slices wait in the relay's WAL, under two
	// KEKs. Bob comes back as a new process: same key, empty memo.
	if err := bob.Logout(ctx); err != nil {
		t.Fatal(err)
	}
	bobClient.Close()
	const queued = 10
	for i := 0; i < queued; i++ {
		if i == queued/2 {
			rotate()
		}
		if _, n, err := alice.SecureMsgPeerGroupRelay(ctx, "g", fmt.Sprintf("queued %d", i)); err != nil || n != 1 {
			t.Fatalf("slice %d: queued=%d, err=%v", i, n, err)
		}
	}
	var coldEvents *events.Collector
	coldBob, _ := join("bob", membership.NewPSE(bobStore, 0), func(cl *client.Client) {
		coldEvents = events.NewCollector(cl.Bus())
	})
	if coldBob.PeerID() != bob.PeerID() || coldBob.Identity().Keys == bobKeys {
		t.Fatal("restarted bob did not reload his key from his keystore")
	}
	received(coldEvents, queued)
	if got := coldBob.Identity().Keys.UnwrapCalls(); got != 2 {
		t.Fatalf("cold bob paid %d RSA unwraps for %d queued slices under 2 KEKs, want 2", got, queued)
	}
}
