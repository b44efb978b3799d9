package core_test

import (
	"testing"
	"time"

	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/telemetry"
)

// relogin logs sc out and runs secureConnection + secureLogin again.
func (h *secureHarness) relogin(sc *core.SecureClient, password string) {
	h.t.Helper()
	if err := sc.Logout(testCtx(h.t)); err != nil {
		h.t.Fatalf("Logout: %v", err)
	}
	h.join(sc, password)
}

// TestReloginReusesCredential: N logins of one client cost the broker
// one credential signature, N challenge signatures and one RSA unwrap of
// the login envelope, and cost the client one advertisement signature
// on top of its N request signatures. Every login returns the same
// credential, and the re-published pipe advertisement hits the
// broker's verify cache.
func TestReloginReusesCredential(t *testing.T) {
	const n = 6
	h := newSecureHarness(t, true)
	reg := telemetry.New()
	core.RegisterBrokerTelemetry(reg, h.br, h.brSec, nil, nil, nil)
	sc := h.secureClient("alice")
	clKP := sc.Identity().Keys
	brSign0, brUnwrap0, clSign0 := h.brKP.SignCalls(), h.brKP.UnwrapCalls(), clKP.SignCalls()
	_, vMiss0 := h.brSec.VerifyCache().Stats()

	h.join(sc, "pw-alice")
	first := sc.Identity().Credential
	for i := 1; i < n; i++ {
		h.relogin(sc, "pw-alice")
		if got := sc.Identity().Credential; !got.Equal(first) {
			t.Fatalf("login %d: credential re-issued (NotAfter %v, first %v)", i+1, got.NotAfter, first.NotAfter)
		}
	}

	if got := h.brKP.SignCalls() - brSign0; got != n+1 {
		t.Errorf("broker signatures = %d, want %d challenges + 1 credential", got, n)
	}
	if got := h.brKP.UnwrapCalls() - brUnwrap0; got != 1 {
		t.Errorf("broker RSA unwraps = %d, want 1 (one pair KEK)", got)
	}
	if got := clKP.SignCalls() - clSign0; got != n+1 {
		t.Errorf("client signatures = %d, want %d requests + 1 advertisement", got, n)
	}
	if _, vMiss := h.brSec.VerifyCache().Stats(); vMiss-vMiss0 != 1 {
		t.Errorf("broker verify-cache misses = %d, want 1 (re-published advertisement is byte-identical)", vMiss-vMiss0)
	}
	if got, _ := reg.Get(core.MetricCredIssued); got != 1 {
		t.Errorf("%s = %v, want 1", core.MetricCredIssued, got)
	}
	if got, _ := reg.Get(core.MetricCredReused); got != n-1 {
		t.Errorf("%s = %v, want %d", core.MetricCredReused, got, n-1)
	}
}

// TestOtherKeyGetsFreshCredential: a second client of the same user has
// its own key (and CBID), so it never receives the first one's
// credential.
func TestOtherKeyGetsFreshCredential(t *testing.T) {
	h := newSecureHarness(t, false)
	reg := telemetry.New()
	core.RegisterBrokerTelemetry(reg, h.br, h.brSec, nil, nil, nil)
	a1 := h.secureClient("alice")
	h.join(a1, "pw-alice")
	if err := a1.Logout(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	a2 := h.secureClient("alice")
	h.join(a2, "pw-alice")
	c1, c2 := a1.Identity().Credential, a2.Identity().Credential
	if c1.Equal(c2) || c2.Key.Equal(c1.Key) || !c2.Key.Equal(a2.Identity().Keys.Public()) {
		t.Fatal("second key received the first key's credential")
	}
	if got, _ := reg.Get(core.MetricCredIssued); got != 2 {
		t.Fatalf("%s = %v, want 2", core.MetricCredIssued, got)
	}
}

// TestCredentialPastHalfLifeReissued: once less than half of
// CredValidity is left, a login signs a fresh credential with the full
// window.
func TestCredentialPastHalfLifeReissued(t *testing.T) {
	h := newSecureHarness(t, false)
	sc := h.secureClient("alice")
	h.join(sc, "pw-alice")
	old := sc.Identity().Credential

	h.relogin(sc, "pw-alice")
	if !sc.Identity().Credential.Equal(old) {
		t.Fatal("credential re-issued before its half-life")
	}

	skew := core.DefaultCredValidity/2 + time.Minute
	h.brSec.SetClock(func() time.Time { return time.Now().Add(skew) })
	brSign0 := h.brKP.SignCalls()
	h.relogin(sc, "pw-alice")
	fresh := sc.Identity().Credential
	if fresh.Equal(old) {
		t.Fatal("credential past its half-life was reused")
	}
	if got := h.brKP.SignCalls() - brSign0; got != 2 {
		t.Fatalf("broker signatures = %d, want challenge + credential", got)
	}
	if w := fresh.NotAfter.Sub(fresh.NotBefore); w != core.DefaultCredValidity+time.Minute {
		t.Fatalf("fresh credential window = %v, want the full %v plus skew grace", w, core.DefaultCredValidity)
	}
	if !fresh.NotAfter.After(old.NotAfter) {
		t.Fatal("fresh credential does not extend the window")
	}
}

// TestRenewedCredentialReusedAtLogin: secureRenew always signs a new
// window, and the next login hands back that renewed credential.
func TestRenewedCredentialReusedAtLogin(t *testing.T) {
	h := newSecureHarness(t, false)
	sc := h.secureClient("alice")
	h.join(sc, "pw-alice")
	first := sc.Identity().Credential
	if err := sc.SecureRenewCredential(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	renewed := sc.Identity().Credential
	if renewed.Equal(first) || !renewed.NotAfter.After(first.NotAfter) {
		t.Fatal("renewal did not extend the window")
	}
	h.relogin(sc, "pw-alice")
	if got := sc.Identity().Credential; !got.Equal(renewed) {
		t.Fatalf("login after renewal returned NotAfter %v, want the renewed %v", got.NotAfter, renewed.NotAfter)
	}
}
