// Package retry implements the service's retry policy: capped exponential
// backoff with proportional jitter, a context-aware sleeper so cancellation
// cuts a backoff short, and the Retryable classification that separates
// transient faults (worth re-running) from deterministic failures (a
// simulation that failed once fails identically forever).
package retry

import (
	"context"
	"errors"
	"math/rand"
	"time"
)

// Policy schedules attempts. The zero value never retries.
type Policy struct {
	// MaxAttempts is the total number of tries including the first;
	// values <= 1 disable retrying.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; each further
	// attempt multiplies it by Multiplier, capped at MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the backoff; 0 means no cap.
	MaxDelay time.Duration
	// Multiplier grows the delay between attempts; values < 1 default to 2.
	Multiplier float64
	// Jitter widens each delay to [d*(1-Jitter), d*(1+Jitter)], de-phasing
	// retry storms. Must be in [0, 1]; 0 is fully deterministic.
	Jitter float64
}

// Delay returns the backoff after the attempt-th failure (1-based). rnd
// draws the jitter; nil uses the shared math/rand source. Attempts at or
// beyond MaxAttempts return 0, as does a non-positive BaseDelay.
func (p Policy) Delay(attempt int, rnd *rand.Rand) time.Duration {
	if attempt < 1 || p.BaseDelay <= 0 {
		return 0
	}
	mult := p.Multiplier
	if mult < 1 {
		mult = 2
	}
	d := float64(p.BaseDelay)
	for i := 1; i < attempt; i++ {
		d *= mult
		if p.MaxDelay > 0 && d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.Jitter > 0 {
		f := rand.Float64
		if rnd != nil {
			f = rnd.Float64
		}
		d *= 1 + p.Jitter*(2*f()-1)
	}
	return time.Duration(d)
}

// Sleeper pauses for d or until ctx is done, whichever comes first,
// returning ctx's error when cut short. Tests inject fakes to make backoff
// schedules instant and clock-independent.
type Sleeper func(ctx context.Context, d time.Duration) error

// Sleep is the production Sleeper. A context that is already done wins even
// over a timer that fires before the select runs: select picks at random
// among ready cases.
func Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); d <= 0 || err != nil {
		return err
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Retryable reports whether err is worth re-running: some error in its
// Unwrap chain implements `Retryable() bool` and answers true. Injected
// faults (internal/faultinject) and explicitly transient errors qualify;
// context cancellation, validation failures and deterministic simulation
// errors do not.
func Retryable(err error) bool {
	for err != nil {
		if r, ok := err.(interface{ Retryable() bool }); ok {
			return r.Retryable()
		}
		err = errors.Unwrap(err)
	}
	return false
}

// Transient wraps err so Retryable answers true, for error sources that
// know their failures are worth retrying but don't implement the marker.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return transientError{err}
}

type transientError struct{ error }

func (t transientError) Retryable() bool { return true }
func (t transientError) Unwrap() error   { return t.error }

// Do runs fn under the policy: up to MaxAttempts tries, backing off between
// failures that classify as Retryable. It returns the number of attempts
// made and the last error (nil on success). A nil sleep uses Sleep; a nil
// rnd leaves jitter on the shared source. Context cancellation stops the
// loop immediately — the context's error is returned if fn's own error was
// already consumed by a backoff cut short.
func Do(ctx context.Context, p Policy, sleep Sleeper, rnd *rand.Rand, fn func(attempt int) error) (int, error) {
	if sleep == nil {
		sleep = Sleep
	}
	max := p.MaxAttempts
	if max < 1 {
		max = 1
	}
	var err error
	for attempt := 1; ; attempt++ {
		err = fn(attempt)
		if err == nil || attempt >= max || !Retryable(err) {
			return attempt, err
		}
		if serr := sleep(ctx, p.Delay(attempt, rnd)); serr != nil {
			return attempt, err // keep fn's error; ctx's cause is in it or moot
		}
	}
}
