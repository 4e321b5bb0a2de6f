// Command fixture stands in for the fixture module's program. It
// references every exported analyzer case outside internal/dead, so
// that deadexport reports only the cases written for it.
package main

import (
	"fmt"

	"uavdc/internal/app"
	"uavdc/internal/conc"
	"uavdc/internal/core"
	"uavdc/internal/dead"
	"uavdc/internal/obs"
	"uavdc/internal/pure"
	"uavdc/internal/units"
	"uavdc/internal/viz"
)

var cases = []any{
	app.DropErrors, app.GlobalRand, app.MapOrder, app.BadDirectives, app.StaleDirective,
	(*conc.Store).Inc, (*conc.Store).LeakLock, (*conc.Store).LeakLockAllowed,
	(*conc.Store).DoubleLock, (*conc.Store).BlockUnderLock, (*conc.Store).NonBlockingUnderLock,
	conc.Snapshot, conc.SnapshotAllowed, conc.Counter.Read,
	conc.SpawnDetached, conc.SpawnDetachedAllowed, conc.SpawnTracked,
	conc.SchemaOK, conc.SchemaBogus, conc.SchemaStale, conc.SchemaMalformed, conc.SchemaStaleAllowed,
	core.FloatCompare, core.Ordering, core.Clock, core.Instrument, core.Algorithm2.Plan,
	core.Launder, core.Magnitudes, core.Formulas,
	obs.Rec.Histogram, pure.Apply, units.Watts.F, units.Seconds.F, viz.Render,
}

func main() {
	fmt.Println(len(cases), dead.Live())
}
