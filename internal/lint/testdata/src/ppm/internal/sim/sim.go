// Package sim stands in for the real internal/sim: the one non-command
// package allowed to observe the wall clock, and the owner of the
// blessed seeded source, so it may use math/rand freely.
package sim

import (
	"math/rand"
	"time"
)

func RealNow() time.Time { return time.Now() }

func Jitter() float64 { return rand.Float64() }
