package cluster

import (
	"sync"
	"time"
)

// TokenBucket is the gateway's admission controller: sessions spend one
// token each; tokens refill at Rate per second up to Burst. The clock is
// explicit — Admit takes the current instant as a duration from an
// arbitrary epoch — so a sequence of (now) instants fully determines
// every decision: the gateway feeds it wall time, its tests feed it
// chosen instants, and the bucket itself reads no clock (detpath).
type TokenBucket struct {
	rate  float64 // tokens per second; <= 0 disables admission control
	burst float64

	mu     sync.Mutex
	tokens float64
	last   time.Duration
}

// NewTokenBucket returns a full bucket. rate <= 0 admits everything;
// burst < 1 is raised to 1 so a positive rate can ever admit.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	if burst < 1 {
		burst = 1
	}
	return &TokenBucket{rate: rate, burst: burst, tokens: burst}
}

// Admit spends one token at instant now. When the bucket is empty it
// reports ok=false and the wait until the next whole token — the
// Retry-After hint for the 429 shed. Instants must be non-decreasing
// per bucket (a regression is treated as no elapsed time).
func (b *TokenBucket) Admit(now time.Duration) (ok bool, retryAfter time.Duration) {
	if b.rate <= 0 {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if now > b.last {
		b.tokens += float64((now - b.last).Seconds() * b.rate)
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
	return false, wait
}
