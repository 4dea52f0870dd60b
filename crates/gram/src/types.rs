//! Job descriptions and lifecycle state.

use gridsec_xml::Element;

/// A GRAM job description (RSL in GT2, XML in GT3 — paper §5.3: "the
/// name of the executable, the working directory, where input and output
/// should be stored, and the queue in which it should run").
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JobDescription {
    /// Path of the executable to run.
    pub executable: String,
    /// Command-line arguments.
    pub arguments: Vec<String>,
    /// Working directory.
    pub directory: String,
    /// Where to write stdout.
    pub stdout: String,
    /// Target queue.
    pub queue: String,
}

impl JobDescription {
    /// A minimal description for `executable`.
    pub fn new(executable: &str) -> Self {
        JobDescription {
            executable: executable.to_string(),
            arguments: Vec::new(),
            directory: "/".to_string(),
            stdout: "/dev/null".to_string(),
            queue: "batch".to_string(),
        }
    }

    /// Builder: arguments.
    pub fn with_args(mut self, args: &[&str]) -> Self {
        self.arguments = args.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Render as the XML payload of a job request.
    pub fn to_element(&self) -> Element {
        let mut el = Element::new("gram:JobDescription")
            .with_child(Element::new("gram:Executable").with_text(self.executable.clone()))
            .with_child(Element::new("gram:Directory").with_text(self.directory.clone()))
            .with_child(Element::new("gram:Stdout").with_text(self.stdout.clone()))
            .with_child(Element::new("gram:Queue").with_text(self.queue.clone()));
        for a in &self.arguments {
            el.push_child(Element::new("gram:Argument").with_text(a.clone()));
        }
        el
    }

    /// Parse from the XML payload.
    pub(crate) fn from_element(el: &Element) -> Option<JobDescription> {
        Some(JobDescription {
            executable: el.find("gram:Executable")?.text_content(),
            directory: el.find("gram:Directory")?.text_content(),
            stdout: el.find("gram:Stdout")?.text_content(),
            queue: el.find("gram:Queue")?.text_content(),
            arguments: el
                .find_all("gram:Argument")
                .map(|a| a.text_content())
                .collect(),
        })
    }
}

/// Lifecycle state of a managed job.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JobState {
    /// MJS exists, job not yet started (awaiting step 7).
    Unsubmitted,
    /// Running.
    Active,
    /// Completed.
    Done,
    /// Cancelled by the owner.
    Cancelled,
    /// Failed.
    Failed,
}

impl JobState {
    /// Short text form used in service data elements.
    pub fn as_str(&self) -> &'static str {
        match self {
            JobState::Unsubmitted => "unsubmitted",
            JobState::Active => "active",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xml_roundtrip() {
        let mut desc = JobDescription::new("/bin/simulate").with_args(&["--steps", "100"]);
        desc.queue = "gpu".to_string();
        let parsed = JobDescription::from_element(&desc.to_element()).unwrap();
        assert_eq!(parsed, desc);
    }

    #[test]
    fn missing_fields_rejected() {
        let el = Element::new("gram:JobDescription")
            .with_child(Element::new("gram:Executable").with_text("/bin/x"));
        assert!(JobDescription::from_element(&el).is_none());
    }

    #[test]
    fn state_names() {
        assert_eq!(JobState::Active.as_str(), "active");
        assert_eq!(JobState::Unsubmitted.as_str(), "unsubmitted");
    }
}
