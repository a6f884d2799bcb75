package permissions

// GeneralAPI identifies the cross-cutting "General Permission APIs" of
// §4.1.1: functions defined by the Permissions specification, the
// Permissions Policy specification, and the deprecated Feature Policy
// API that Chromium still exposes (the paper found 429,259 websites
// still relying on the old name).
type GeneralAPI struct {
	// Expr is the JavaScript expression (also the static-match pattern).
	Expr string
	// Spec names the defining specification.
	Spec string
	// Deprecated marks Feature-Policy-era names.
	Deprecated bool
	// StatusCheck marks APIs that query permission status (feeding the
	// Table 5 "Invocations for Permission Status" analysis).
	StatusCheck bool
}

// GeneralAPIs are the general-purpose APIs of Appendix A.4 as the
// static analyzer matches them. Which recorded calls count as General
// Permission APIs is webapi's decision (webapi.Invocation.General).
var GeneralAPIs = []GeneralAPI{
	{Expr: "navigator.permissions.query", Spec: "Permissions", StatusCheck: true},
	{Expr: "navigator.permissions", Spec: "Permissions"},
	{Expr: "document.permissionsPolicy.allowedFeatures", Spec: "Permissions Policy", StatusCheck: true},
	{Expr: "document.permissionsPolicy.allowsFeature", Spec: "Permissions Policy", StatusCheck: true},
	{Expr: "document.permissionsPolicy.features", Spec: "Permissions Policy", StatusCheck: true},
	{Expr: "document.permissionsPolicy", Spec: "Permissions Policy"},
	{Expr: "document.featurePolicy.allowedFeatures", Spec: "Feature Policy", Deprecated: true, StatusCheck: true},
	{Expr: "document.featurePolicy.allowsFeature", Spec: "Feature Policy", Deprecated: true, StatusCheck: true},
	{Expr: "document.featurePolicy.features", Spec: "Feature Policy", Deprecated: true, StatusCheck: true},
	{Expr: "document.featurePolicy", Spec: "Feature Policy", Deprecated: true},
}

// GeneralAPIDisplayName is the row label the paper's Table 4 uses.
const GeneralAPIDisplayName = "General Permission APIs"
