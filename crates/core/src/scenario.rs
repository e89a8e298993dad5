//! Design-space scenarios: a named bundle of interposer-spec overrides
//! and study knobs, validated at construction.
//!
//! A [`Scenario`] is the unit of work of the batch engine
//! ([`crate::batch`]): it names a technology, a monitored-lengths mode,
//! a set of typed overrides on the paper's Table I design rules, and an
//! optional set of fault-injection sites scoped to that scenario's run.
//! Construction validates every knob and reports
//! [`FlowError::InvalidConfig`] naming the offending field, so a batch
//! never starts with a scenario that cannot be resolved into a usable
//! [`InterposerSpec`].

use crate::table5::MonitorLengths;
use crate::FlowError;
use serde::Serialize;
use serde_json::Value;
use techlib::spec::{InterposerKind, InterposerSpec};

/// The most signal metal layers a scenario may ask for. Table I's
/// technologies route on 3–8; the router allocates per layer, so an
/// unbounded count from a request body could ask for more memory than
/// the machine has, which aborts the process rather than failing the
/// scenario.
pub const MAX_SIGNAL_METAL_LAYERS: usize = 32;

/// Typed overrides on the paper's Table I design rules. `None` fields
/// keep the [`InterposerSpec::for_kind`] default.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct ScenarioOverrides {
    /// Metal layers available for signal routing.
    pub signal_metal_layers: Option<usize>,
    /// RDL metal thickness, µm.
    pub metal_thickness_um: Option<f64>,
    /// Inter-layer dielectric thickness, µm.
    pub dielectric_thickness_um: Option<f64>,
    /// Relative permittivity of the routing dielectric.
    pub dielectric_constant: Option<f64>,
    /// Dielectric loss tangent.
    pub loss_tangent: Option<f64>,
    /// Minimum wire width, µm.
    pub min_wire_width_um: Option<f64>,
    /// Minimum wire spacing, µm.
    pub min_wire_space_um: Option<f64>,
    /// RDL via diameter, µm.
    pub via_size_um: Option<f64>,
    /// Micro-bump diameter, µm.
    pub bump_size_um: Option<f64>,
    /// Minimum die-to-die spacing, µm.
    pub die_to_die_spacing_um: Option<f64>,
    /// Micro-bump pitch, µm.
    pub microbump_pitch_um: Option<f64>,
    /// Substrate core thickness, µm.
    pub core_thickness_um: Option<f64>,
    /// Routing-dielectric material, by [`techlib::material::by_name`]
    /// name; sets the spec's permittivity and loss tangent (explicit
    /// `dielectric_constant` / `loss_tangent` overrides still win).
    pub routing_dielectric: Option<String>,
}

impl ScenarioOverrides {
    /// True when every field keeps the paper default.
    pub fn is_empty(&self) -> bool {
        *self == ScenarioOverrides::default()
    }

    /// Applies the overrides to `spec` in place. The caller has already
    /// validated the values ([`Scenario::new`]).
    fn apply_to(&self, spec: &mut InterposerSpec) {
        // Material first, so explicit electrical overrides win over it.
        if let Some(name) = &self.routing_dielectric {
            if let Some(mat) = techlib::material::by_name(name) {
                spec.dielectric_constant = mat.rel_permittivity;
                spec.loss_tangent = mat.loss_tangent;
            }
        }
        let pairs_f64 = [
            (&self.metal_thickness_um, &mut spec.metal_thickness_um),
            (
                &self.dielectric_thickness_um,
                &mut spec.dielectric_thickness_um,
            ),
            (&self.dielectric_constant, &mut spec.dielectric_constant),
            (&self.loss_tangent, &mut spec.loss_tangent),
            (&self.min_wire_width_um, &mut spec.min_wire_width_um),
            (&self.min_wire_space_um, &mut spec.min_wire_space_um),
            (&self.via_size_um, &mut spec.via_size_um),
            (&self.bump_size_um, &mut spec.bump_size_um),
            (&self.die_to_die_spacing_um, &mut spec.die_to_die_spacing_um),
            (&self.microbump_pitch_um, &mut spec.microbump_pitch_um),
            (&self.core_thickness_um, &mut spec.core_thickness_um),
        ];
        for (src, dst) in pairs_f64 {
            if let Some(v) = src {
                *dst = *v;
            }
        }
        if let Some(n) = self.signal_metal_layers {
            spec.signal_metal_layers = n;
        }
    }

    fn validate(&self, scenario: &str) -> Result<(), FlowError> {
        let positive = [
            ("metal_thickness_um", self.metal_thickness_um),
            ("dielectric_thickness_um", self.dielectric_thickness_um),
            ("dielectric_constant", self.dielectric_constant),
            ("min_wire_width_um", self.min_wire_width_um),
            ("min_wire_space_um", self.min_wire_space_um),
            ("via_size_um", self.via_size_um),
            ("bump_size_um", self.bump_size_um),
            ("microbump_pitch_um", self.microbump_pitch_um),
            ("core_thickness_um", self.core_thickness_um),
        ];
        for (field, value) in positive {
            if let Some(v) = value {
                if !(v.is_finite() && v > 0.0) {
                    return Err(invalid(
                        scenario,
                        field,
                        format!("must be positive and finite, got {v}"),
                    ));
                }
            }
        }
        let non_negative = [
            ("loss_tangent", self.loss_tangent),
            ("die_to_die_spacing_um", self.die_to_die_spacing_um),
        ];
        for (field, value) in non_negative {
            if let Some(v) = value {
                if !(v.is_finite() && v >= 0.0) {
                    return Err(invalid(
                        scenario,
                        field,
                        format!("must be non-negative and finite, got {v}"),
                    ));
                }
            }
        }
        if let Some(n) = self.signal_metal_layers {
            if !(1..=MAX_SIGNAL_METAL_LAYERS).contains(&n) {
                return Err(invalid(
                    scenario,
                    "signal_metal_layers",
                    format!("must be between 1 and {MAX_SIGNAL_METAL_LAYERS}, got {n}"),
                ));
            }
        }
        if let Some(name) = &self.routing_dielectric {
            if techlib::material::by_name(name).is_none() {
                let known: Vec<&str> = techlib::material::ALL.iter().map(|m| m.name).collect();
                return Err(invalid(
                    scenario,
                    "routing_dielectric",
                    format!("unknown material {name:?}; known: {}", known.join(", ")),
                ));
            }
        }
        Ok(())
    }
}

fn invalid(scenario: &str, field: &str, problem: String) -> FlowError {
    FlowError::InvalidConfig {
        reason: format!("scenario {scenario:?}: {field} {problem}"),
    }
}

/// One validated point of the design space: a technology, a
/// monitored-lengths mode, resolved spec overrides and (for the fault
/// suite) a set of scoped fault-injection sites.
///
/// Fields are private so a constructed `Scenario` is always valid;
/// [`Scenario::new`] is the only way to set them.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Scenario {
    name: String,
    tech: InterposerKind,
    mode: MonitorLengths,
    overrides: ScenarioOverrides,
    fault_sites: Vec<String>,
}

impl Scenario {
    /// Builds and validates a scenario.
    ///
    /// # Errors
    ///
    /// [`FlowError::InvalidConfig`] naming the offending field when the
    /// name is empty, the technology has no package-level design, an
    /// override is out of range (non-positive or non-finite dimensions,
    /// zero routing layers, unknown dielectric material), or a fault
    /// site is not one of [`techlib::faults::SITES`].
    pub fn new(
        name: impl Into<String>,
        tech: InterposerKind,
        mode: MonitorLengths,
        overrides: ScenarioOverrides,
        fault_sites: Vec<String>,
    ) -> Result<Scenario, FlowError> {
        let name = name.into();
        if name.trim().is_empty() {
            return Err(FlowError::InvalidConfig {
                reason: "scenario name must not be empty".to_string(),
            });
        }
        if !InterposerKind::PACKAGED.contains(&tech) {
            return Err(invalid(
                &name,
                "tech",
                format!("{tech} has no package-level design to study"),
            ));
        }
        overrides.validate(&name)?;
        for site in &fault_sites {
            if !techlib::faults::SITES.contains(&site.as_str()) {
                return Err(invalid(
                    &name,
                    "fault_sites",
                    format!(
                        "unknown site {site:?}; known: {}",
                        techlib::faults::SITES.join(", ")
                    ),
                ));
            }
        }
        Ok(Scenario {
            name,
            tech,
            mode,
            overrides,
            fault_sites,
        })
    }

    /// The paper-default scenario for `tech`: no overrides, no faults,
    /// routed monitored lengths.
    pub fn paper(tech: InterposerKind) -> Scenario {
        Scenario {
            name: format!("paper-{tech}"),
            tech,
            mode: MonitorLengths::Routed,
            overrides: ScenarioOverrides::default(),
            fault_sites: Vec::new(),
        }
    }

    /// Scenario name (unique within any batch parsed by
    /// [`scenarios_from_json`], which rejects duplicates — sweep output
    /// rows are keyed by name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The technology this scenario studies.
    pub fn tech(&self) -> InterposerKind {
        self.tech
    }

    /// Monitored-lengths mode for the Table V links.
    pub fn mode(&self) -> MonitorLengths {
        self.mode
    }

    /// The spec overrides.
    pub fn overrides(&self) -> &ScenarioOverrides {
        &self.overrides
    }

    /// Fault sites armed (scoped to this scenario) while it runs.
    pub fn fault_sites(&self) -> &[String] {
        &self.fault_sites
    }

    /// True when no fault sites are armed — clean scenarios may share
    /// front-end artifacts with each other.
    pub fn is_clean(&self) -> bool {
        self.fault_sites.is_empty()
    }

    /// The design rules for `kind` with this scenario's overrides
    /// applied on top of the [`InterposerSpec::for_kind`] baseline.
    pub fn spec_for(&self, kind: InterposerKind) -> InterposerSpec {
        let mut spec = InterposerSpec::for_kind(kind);
        self.overrides.apply_to(&mut spec);
        spec
    }

    /// The resolved spec of the scenario's own technology.
    pub fn resolved_spec(&self) -> InterposerSpec {
        self.spec_for(self.tech)
    }
}

/// Parses a technology name the way the CLI does (`glass3d`,
/// `silicon25d`, `si3d`, `shinko`, `apx`, …).
pub fn kind_from_str(name: &str) -> Option<InterposerKind> {
    match name
        .to_ascii_lowercase()
        .replace(['-', '_', '.', ' '], "")
        .as_str()
    {
        "glass25d" | "glass2d5" => Some(InterposerKind::Glass25D),
        "glass3d" | "55d" => Some(InterposerKind::Glass3D),
        "silicon25d" | "si25d" | "cowos" => Some(InterposerKind::Silicon25D),
        "silicon3d" | "si3d" => Some(InterposerKind::Silicon3D),
        "shinko" => Some(InterposerKind::Shinko),
        "apx" => Some(InterposerKind::Apx),
        _ => None,
    }
}

/// Parses a batch description from JSON text (the `codesign sweep`
/// input). Accepts either a top-level array of scenario objects or an
/// object with a `"scenarios"` array. Each scenario object supports:
///
/// ```json
/// {
///   "name": "thick-copper",
///   "tech": "glass25d",
///   "mode": "routed",
///   "overrides": { "metal_thickness_um": 6.0 },
///   "fault_sites": ["thermal.solve"]
/// }
/// ```
///
/// `mode`, `overrides` and `fault_sites` are optional; unknown keys are
/// rejected so typos surface as errors instead of silently keeping the
/// paper default. Scenario names must be unique within the file —
/// `codesign sweep` output rows are keyed by name, so a duplicate would
/// make them ambiguous.
///
/// # Errors
///
/// [`FlowError::InvalidConfig`] for malformed JSON, unknown keys,
/// duplicate scenario names, or any [`Scenario::new`] validation
/// failure.
pub fn scenarios_from_json(text: &str) -> Result<Vec<Scenario>, FlowError> {
    let doc = serde_json::from_str(text).map_err(|e| FlowError::InvalidConfig {
        reason: format!("scenario file: {e}"),
    })?;
    let list = match &doc {
        Value::Array(items) => items.as_slice(),
        Value::Object(_) => match doc.get("scenarios") {
            Some(Value::Array(items)) => items.as_slice(),
            _ => {
                return Err(FlowError::InvalidConfig {
                    reason: "scenario file: expected an array or an object with a \"scenarios\" \
                             array"
                        .to_string(),
                })
            }
        },
        _ => {
            return Err(FlowError::InvalidConfig {
                reason: "scenario file: top level must be an array of scenario objects".to_string(),
            })
        }
    };
    let scenarios: Vec<Scenario> = list
        .iter()
        .enumerate()
        .map(scenario_from_value)
        .collect::<Result<_, _>>()?;
    let mut seen = std::collections::BTreeSet::new();
    for scenario in &scenarios {
        if !seen.insert(scenario.name()) {
            return Err(FlowError::InvalidConfig {
                reason: format!(
                    "scenario file: duplicate scenario name {:?} (names key the sweep's \
                     output rows, so they must be unique)",
                    scenario.name()
                ),
            });
        }
    }
    Ok(scenarios)
}

fn scenario_from_value((index, value): (usize, &Value)) -> Result<Scenario, FlowError> {
    let Value::Object(fields) = value else {
        return Err(FlowError::InvalidConfig {
            reason: format!("scenario #{index}: must be an object"),
        });
    };
    let mut name = None;
    let mut tech = None;
    let mut mode = MonitorLengths::Routed;
    let mut overrides = ScenarioOverrides::default();
    let mut fault_sites = Vec::new();
    for (key, val) in fields {
        match key.as_str() {
            "name" => {
                name = Some(expect_string(index, key, val)?.to_string());
            }
            "tech" => {
                let raw = expect_string(index, key, val)?;
                tech = Some(kind_from_str(raw).ok_or_else(|| FlowError::InvalidConfig {
                    reason: format!("scenario #{index}: tech: unknown technology {raw:?}"),
                })?);
            }
            "mode" => {
                mode = match expect_string(index, key, val)? {
                    "routed" => MonitorLengths::Routed,
                    "paper" => MonitorLengths::Paper,
                    other => {
                        return Err(FlowError::InvalidConfig {
                            reason: format!(
                                "scenario #{index}: mode: expected \"routed\" or \"paper\", \
                                 got {other:?}"
                            ),
                        })
                    }
                };
            }
            "overrides" => {
                overrides = overrides_from_value(index, val)?;
            }
            "fault_sites" | "faults" => {
                let Value::Array(items) = val else {
                    return Err(FlowError::InvalidConfig {
                        reason: format!("scenario #{index}: {key}: must be an array of strings"),
                    });
                };
                for item in items {
                    fault_sites.push(expect_string(index, key, item)?.to_string());
                }
            }
            other => {
                return Err(FlowError::InvalidConfig {
                    reason: format!("scenario #{index}: unknown key {other:?}"),
                })
            }
        }
    }
    let name = name.ok_or_else(|| FlowError::InvalidConfig {
        reason: format!("scenario #{index}: missing \"name\""),
    })?;
    let tech = tech.ok_or_else(|| FlowError::InvalidConfig {
        reason: format!("scenario {name:?}: missing \"tech\""),
    })?;
    Scenario::new(name, tech, mode, overrides, fault_sites)
}

fn overrides_from_value(index: usize, value: &Value) -> Result<ScenarioOverrides, FlowError> {
    let Value::Object(fields) = value else {
        return Err(FlowError::InvalidConfig {
            reason: format!("scenario #{index}: overrides: must be an object"),
        });
    };
    let mut ov = ScenarioOverrides::default();
    for (key, val) in fields {
        let slot: &mut Option<f64> = match key.as_str() {
            "metal_thickness_um" => &mut ov.metal_thickness_um,
            "dielectric_thickness_um" => &mut ov.dielectric_thickness_um,
            "dielectric_constant" => &mut ov.dielectric_constant,
            "loss_tangent" => &mut ov.loss_tangent,
            "min_wire_width_um" => &mut ov.min_wire_width_um,
            "min_wire_space_um" => &mut ov.min_wire_space_um,
            "via_size_um" => &mut ov.via_size_um,
            "bump_size_um" => &mut ov.bump_size_um,
            "die_to_die_spacing_um" => &mut ov.die_to_die_spacing_um,
            "microbump_pitch_um" => &mut ov.microbump_pitch_um,
            "core_thickness_um" => &mut ov.core_thickness_um,
            "signal_metal_layers" => {
                let n = val.as_u64().ok_or_else(|| FlowError::InvalidConfig {
                    reason: format!(
                        "scenario #{index}: overrides.signal_metal_layers: must be a \
                         non-negative integer"
                    ),
                })?;
                ov.signal_metal_layers = Some(n as usize);
                continue;
            }
            "routing_dielectric" => {
                ov.routing_dielectric = Some(expect_string(index, key, val)?.to_string());
                continue;
            }
            other => {
                return Err(FlowError::InvalidConfig {
                    reason: format!("scenario #{index}: overrides: unknown key {other:?}"),
                })
            }
        };
        *slot = Some(val.as_f64().ok_or_else(|| FlowError::InvalidConfig {
            reason: format!("scenario #{index}: overrides.{key}: must be a number"),
        })?);
    }
    Ok(ov)
}

fn expect_string<'v>(index: usize, key: &str, value: &'v Value) -> Result<&'v str, FlowError> {
    value.as_str().ok_or_else(|| FlowError::InvalidConfig {
        reason: format!("scenario #{index}: {key}: must be a string"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(overrides: ScenarioOverrides) -> Result<Scenario, FlowError> {
        Scenario::new(
            "t",
            InterposerKind::Glass25D,
            MonitorLengths::Routed,
            overrides,
            Vec::new(),
        )
    }

    #[test]
    fn negative_pitch_is_rejected_naming_the_field() {
        let err = build(ScenarioOverrides {
            microbump_pitch_um: Some(-35.0),
            ..Default::default()
        })
        .unwrap_err();
        let FlowError::InvalidConfig { reason } = &err else {
            panic!("{err:?}");
        };
        assert!(reason.contains("microbump_pitch_um"), "{reason}");
        assert!(reason.contains("-35"), "{reason}");
    }

    #[test]
    fn zero_layers_and_nan_dimensions_are_rejected() {
        for layers in [0, MAX_SIGNAL_METAL_LAYERS + 1, 1_000_000_000] {
            let err = build(ScenarioOverrides {
                signal_metal_layers: Some(layers),
                ..Default::default()
            })
            .unwrap_err();
            assert!(err.to_string().contains("signal_metal_layers"), "{err}");
        }
        assert!(build(ScenarioOverrides {
            signal_metal_layers: Some(MAX_SIGNAL_METAL_LAYERS),
            ..Default::default()
        })
        .is_ok());
        let err = build(ScenarioOverrides {
            via_size_um: Some(f64::NAN),
            ..Default::default()
        })
        .unwrap_err();
        assert!(err.to_string().contains("via_size_um"), "{err}");
    }

    #[test]
    fn unknown_material_and_fault_site_are_rejected() {
        let err = build(ScenarioOverrides {
            routing_dielectric: Some("unobtainium".to_string()),
            ..Default::default()
        })
        .unwrap_err();
        assert!(err.to_string().contains("routing_dielectric"), "{err}");
        assert!(err.to_string().contains("unobtainium"), "{err}");
        let err = Scenario::new(
            "t",
            InterposerKind::Glass25D,
            MonitorLengths::Routed,
            ScenarioOverrides::default(),
            vec!["router.warp".to_string()],
        )
        .unwrap_err();
        assert!(err.to_string().contains("fault_sites"), "{err}");
    }

    #[test]
    fn monolithic_and_empty_names_are_rejected() {
        let err = Scenario::new(
            "t",
            InterposerKind::Monolithic2D,
            MonitorLengths::Routed,
            ScenarioOverrides::default(),
            Vec::new(),
        )
        .unwrap_err();
        assert!(matches!(err, FlowError::InvalidConfig { .. }), "{err}");
        let err = Scenario::new(
            "  ",
            InterposerKind::Glass25D,
            MonitorLengths::Routed,
            ScenarioOverrides::default(),
            Vec::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("name"), "{err}");
    }

    #[test]
    fn overrides_resolve_onto_the_paper_baseline() {
        let s = build(ScenarioOverrides {
            microbump_pitch_um: Some(20.0),
            routing_dielectric: Some("sio2".to_string()),
            loss_tangent: Some(0.002),
            ..Default::default()
        })
        .unwrap();
        let spec = s.resolved_spec();
        let base = InterposerSpec::for_kind(InterposerKind::Glass25D);
        assert_eq!(spec.microbump_pitch_um, 20.0);
        // Material override sets permittivity; the explicit loss-tangent
        // override wins over the material's.
        let sio2 = techlib::material::by_name("SiO2").unwrap();
        assert_eq!(spec.dielectric_constant, sio2.rel_permittivity);
        assert_eq!(spec.loss_tangent, 0.002);
        // Untouched fields keep the Table I defaults.
        assert_eq!(spec.via_size_um, base.via_size_um);
        assert_eq!(spec.stacking, base.stacking);
        // The paper scenario resolves to the unmodified baseline.
        assert_eq!(
            Scenario::paper(InterposerKind::Glass25D).resolved_spec(),
            base
        );
    }

    #[test]
    fn json_round_trip_parses_scenarios() {
        let text = r#"{
          "scenarios": [
            { "name": "baseline", "tech": "glass3d" },
            {
              "name": "coarse-pitch",
              "tech": "glass25d",
              "mode": "paper",
              "overrides": { "microbump_pitch_um": 55.0, "signal_metal_layers": 5 },
              "fault_sites": ["thermal.solve"]
            }
          ]
        }"#;
        let scenarios = scenarios_from_json(text).unwrap();
        assert_eq!(scenarios.len(), 2);
        assert_eq!(scenarios[0].tech(), InterposerKind::Glass3D);
        assert!(scenarios[0].is_clean());
        assert_eq!(scenarios[1].mode(), MonitorLengths::Paper);
        assert_eq!(scenarios[1].resolved_spec().microbump_pitch_um, 55.0);
        assert_eq!(scenarios[1].resolved_spec().signal_metal_layers, 5);
        assert_eq!(scenarios[1].fault_sites(), ["thermal.solve"]);
    }

    #[test]
    fn json_rejects_duplicate_scenario_names() {
        let err = scenarios_from_json(
            r#"[
              { "name": "twin", "tech": "glass3d" },
              { "name": "other", "tech": "apx" },
              { "name": "twin", "tech": "glass25d" }
            ]"#,
        )
        .unwrap_err();
        let FlowError::InvalidConfig { reason } = &err else {
            panic!("{err:?}");
        };
        assert!(reason.contains("duplicate"), "{reason}");
        assert!(reason.contains("\"twin\""), "{reason}");
        // Distinct names still parse.
        assert_eq!(
            scenarios_from_json(
                r#"[{ "name": "a", "tech": "glass3d" }, { "name": "b", "tech": "glass3d" }]"#
            )
            .unwrap()
            .len(),
            2
        );
    }

    #[test]
    fn json_rejects_unknown_keys_and_bad_values() {
        let err =
            scenarios_from_json(r#"[{ "name": "x", "tech": "glass3d", "pitch": 1 }]"#).unwrap_err();
        assert!(err.to_string().contains("pitch"), "{err}");
        let err = scenarios_from_json(
            r#"[{ "name": "x", "tech": "glass3d", "overrides": { "via_size_um": "big" } }]"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("via_size_um"), "{err}");
        let err = scenarios_from_json(r#"[{ "tech": "glass3d" }]"#).unwrap_err();
        assert!(err.to_string().contains("name"), "{err}");
        assert!(scenarios_from_json("not json").is_err());
    }
}
