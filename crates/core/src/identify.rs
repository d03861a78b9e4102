//! Retry-location identification: the union of the control-flow query and
//! the LLM technique (§3.1.1).
//!
//! The two techniques read the same compiled project independently, so
//! [`identify`] runs the control-flow query ([`ProjectIndex::build`] and
//! [`all_retry_locations`]) on the caller's thread while the sweep's
//! other workers start on the files ([`sweep_files_beside`]); the caller
//! then joins the sweep. The query starts by building the project's index
//! ([`Project::index`]) if nothing has yet, so on a freshly compiled
//! project the build, too, overlaps the sweep; no sweep worker reads the
//! index. The follow-up query for the LLM-flagged methods needs both, so
//! it runs after them, on the caller.

use std::collections::BTreeMap;
use wasabi_analysis::loops::{
    all_retry_locations, LoopQueryOptions, Mechanism, RetryLocation, RetryLoop,
};
use wasabi_analysis::resolve::{MethodRef, ProjectIndex};
use wasabi_lang::project::{CallSite, FileId, MethodId, Project};
use wasabi_llm::detector::{sweep_files_beside, LlmSweep};
use wasabi_llm::model::LanguageModel;

/// Everything the identification stage produces.
#[derive(Debug, Clone)]
pub struct Identified {
    /// Retry loops found by the control-flow + keyword query.
    pub codeql_loops: Vec<RetryLoop>,
    /// The LLM sweep (file reports, WHEN findings, usage).
    pub llm_sweep: LlmSweep,
    /// LLM-flagged coordinator methods resolved to classes.
    pub llm_coordinators: Vec<(FileId, MethodId)>,
    /// The union of retry locations from both techniques, deduplicated by
    /// (site, exception); loop-backed locations win ties.
    pub locations: Vec<RetryLocation>,
}

/// The control-flow query's retry loops, each with its locations.
type LoopQuery = Vec<(RetryLoop, Vec<RetryLocation>)>;

/// Runs both identification techniques, the control-flow query beside the
/// LLM sweep, and merges their locations.
pub fn identify(project: &Project, llm: &mut dyn LanguageModel) -> Identified {
    let (files, (index, loops)) = sweep_files_beside(project, llm, || {
        project.index();
        let index = ProjectIndex::build(project);
        let loops = all_retry_locations(&index, &LoopQueryOptions::default());
        (index, loops)
    });
    merge(project, &index, loops, files.into_iter().collect())
}

/// [`identify`] with the LLM sweep already run: the control-flow query,
/// then the merge with `llm_sweep`'s flagged methods.
pub fn identify_with_sweep(project: &Project, llm_sweep: LlmSweep) -> Identified {
    project.index();
    let index = ProjectIndex::build(project);
    let loops = all_retry_locations(&index, &LoopQueryOptions::default());
    merge(project, &index, loops, llm_sweep)
}

/// Merges the control-flow query's locations with those of the methods
/// the LLM flagged, found by a follow-up query for their callees and the
/// exceptions those declare.
fn merge(
    project: &Project,
    index: &ProjectIndex<'_>,
    loops: LoopQuery,
    llm_sweep: LlmSweep,
) -> Identified {
    // Technique 1: control-flow analysis + naming conventions.
    let mut merged: BTreeMap<(CallSite, String), RetryLocation> = BTreeMap::new();
    for (_, locations) in &loops {
        for location in locations {
            merged.insert((location.site, location.exception.clone()), location.clone());
        }
    }
    let codeql_loops: Vec<RetryLoop> = loops.into_iter().map(|(l, _)| l).collect();

    // Technique 2: LLM identification, then a follow-up query for callees
    // and their exceptions.
    let mut llm_coordinators = Vec::new();
    for report in &llm_sweep.retry_files {
        if report.poll_excluded {
            continue;
        }
        for method_name in &report.retry_methods {
            if method_name.starts_with('<') {
                continue;
            }
            // Resolve the named method within the flagged file.
            let file = &project.files[report.file.0 as usize];
            for class in file.classes() {
                let class_name = &file[class.name];
                let Some(decl) = file[class.methods]
                    .iter()
                    .find(|m| &file[m.name] == method_name)
                else {
                    continue;
                };
                llm_coordinators.push((
                    report.file,
                    MethodId::new(class_name, method_name),
                ));
                let method = MethodRef { ast: file, decl };
                for (site, callee, throws) in index.invoked_with_throws(class_name, method) {
                    for exception in throws {
                        merged
                            .entry((site, exception.clone()))
                            .or_insert_with(|| RetryLocation {
                                site,
                                coordinator: MethodId::new(class_name, method_name),
                                retried: callee.clone(),
                                exception,
                                mechanism: Mechanism::LlmFlagged,
                            });
                    }
                }
            }
        }
    }

    Identified {
        codeql_loops,
        llm_sweep,
        llm_coordinators,
        locations: merged.into_values().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasabi_llm::simulated::SimulatedLlm;

    #[test]
    fn merges_loop_and_llm_locations() {
        // One keyword loop (both techniques) and one queue (LLM only).
        let loop_src = "exception ConnectException;\n\
             class Client {\n\
               method connect() throws ConnectException { return 1; }\n\
               method run() {\n\
                 for (var retry = 0; retry < 3; retry = retry + 1) {\n\
                   try { return this.connect(); } catch (ConnectException e) { sleep(10); }\n\
                 }\n\
                 return null;\n\
               }\n\
             }";
        let queue_src = "exception TaskException;\n\
             class Item { method executeItem() throws TaskException { return 1; } }\n\
             class Proc {\n\
               field q;\n\
               method init() { this.q = queue(); }\n\
               method drain() {\n\
                 while (!this.q.isEmpty()) {\n\
                   var item = this.q.take();\n\
                   try { item.executeItem(); } catch (TaskException e) { this.q.put(item); }\n\
                 }\n\
                 return \"done\";\n\
               }\n\
             }";
        let project = Project::compile(
            "t",
            vec![("client.jav", loop_src), ("proc.jav", queue_src)],
        )
        .unwrap();
        let mut llm = SimulatedLlm::with_seed(11);
        let identified = identify(&project, &mut llm);
        assert_eq!(identified.codeql_loops.len(), 1);
        let mechs: Vec<Mechanism> = identified.locations.iter().map(|l| l.mechanism).collect();
        assert!(mechs.contains(&Mechanism::LlmFlagged), "queue location found");
        assert!(
            mechs.iter().any(|m| matches!(m, Mechanism::Loop(_))),
            "loop location found"
        );
        let coords: Vec<String> = identified
            .llm_coordinators
            .iter()
            .map(|(_, m)| m.to_string())
            .collect();
        assert!(coords.contains(&"Proc.drain".to_string()), "{coords:?}");
    }

    #[test]
    fn loop_locations_win_dedup_ties() {
        let src = "exception E;\n\
             class C {\n\
               method op() throws E { return 1; }\n\
               method run() {\n\
                 // retry op a few times\n\
                 for (var retry = 0; retry < 3; retry = retry + 1) {\n\
                   try { return this.op(); } catch (E e) { sleep(5); }\n\
                 }\n\
                 return null;\n\
               }\n\
             }";
        let project = Project::compile("t", vec![("c.jav", src)]).unwrap();
        let mut llm = SimulatedLlm::with_seed(11);
        let identified = identify(&project, &mut llm);
        // The same (site, exception) pair is found by both techniques but
        // appears once, with the loop mechanism.
        assert_eq!(identified.locations.len(), 1);
        assert!(matches!(identified.locations[0].mechanism, Mechanism::Loop(_)));
    }
}
