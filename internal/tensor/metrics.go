package tensor

import "repro/internal/telemetry"

// workspaceAllocBytes counts the bytes workspaces freshly allocate — a
// backing laid out at a new high-water mark and the overflow of a call that
// outgrew it. A healthy steady state shows the series flat.
var workspaceAllocBytes = telemetry.Default().Counter("tensor_workspace_alloc_bytes_total",
	"bytes freshly allocated for workspace backings and their overflow")
