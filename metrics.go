package ccsp

import (
	"time"

	"github.com/congestedclique/ccsp/internal/telemetry"
)

// Engine-level telemetry, recorded into the process-global
// telemetry.Default registry (ccspd's /metrics page serves it alongside
// the server's own registry): artifact-cache effectiveness and the
// wall-clock cost of preprocessing and queries. Hot-path cost is one
// atomic increment or one histogram observation; the registry mutex is
// only taken here, at package init.
var (
	metArtifactHits = telemetry.Default.Counter("ccsp_engine_artifact_cache_hits_total",
		"Artifact requests answered from the preprocessing cache.")
	metArtifactBuilds = telemetry.Default.Counter("ccsp_engine_artifact_builds_total",
		"Preprocessing artifact builds completed.")
	metPreprocessSeconds = telemetry.Default.Histogram("ccsp_engine_preprocess_seconds",
		"Wall-clock duration of completed artifact builds.", nil)
	metQueries = telemetry.Default.Counter("ccsp_engine_queries_total",
		"Engine.Query calls (batch positions included).")
	metQuerySeconds = telemetry.Default.Histogram("ccsp_engine_query_seconds",
		"Wall-clock duration of Engine.Query calls.", nil)
	metRebuilds = telemetry.Default.Counter("ccsp_engine_rebuilds_total",
		"DynamicEngine background rebuilds that published a new epoch.",
		telemetry.L("result", "ok"))
	metRebuildErrors = telemetry.Default.Counter("ccsp_engine_rebuilds_total",
		"DynamicEngine background rebuilds that failed (generation dropped).",
		telemetry.L("result", "error"))
	metRebuildSeconds = telemetry.Default.Histogram("ccsp_engine_rebuild_seconds",
		"Wall-clock duration of successful DynamicEngine rebuilds.", nil)
)

// observeQuery records one Engine.Query call (errors included: a failed
// query burned its wall-clock too).
func observeQuery(start time.Time) {
	metQueries.Inc()
	metQuerySeconds.ObserveDuration(time.Since(start))
}

// observeBuild records one completed (successful) artifact build.
func observeBuild(start time.Time) {
	metArtifactBuilds.Inc()
	metPreprocessSeconds.ObserveDuration(time.Since(start))
}
