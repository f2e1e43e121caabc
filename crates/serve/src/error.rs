//! Typed rejection and failure reasons.
//!
//! The engine never blocks a caller and never silently drops a request:
//! every request either produces an [`InferenceOutput`] or one of these
//! errors, and admission-control rejections happen *before* a request is
//! queued so a shed request costs the caller nothing.
//!
//! [`InferenceOutput`]: crate::request::InferenceOutput

use std::fmt;
use std::time::Duration;

/// Why a request was rejected, cancelled, or lost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control: the bounded submission queue is full. The
    /// request was never enqueued (load shedding, not blocking).
    QueueFull {
        /// The queue's configured capacity.
        capacity: usize,
    },
    /// The request's deadline passed while it sat in the queue; it was
    /// cancelled without running.
    DeadlineExpired {
        /// How long the request actually waited before being cancelled.
        waited: Duration,
        /// The deadline it carried.
        deadline: Duration,
    },
    /// The engine is draining; new submissions are refused.
    ShuttingDown,
    /// The worker processing this request disappeared without responding
    /// (it panicked, or the engine was torn down mid-flight).
    WorkerLost,
    /// The request named a model index the engine was not built with.
    UnknownModel {
        /// The offending index.
        index: usize,
        /// How many models the engine holds.
        models: usize,
    },
    /// The request's cloud is smaller than the model's point floor
    /// ([`ModelSpec::min_points`](crate::ModelSpec::min_points)); it was
    /// never enqueued.
    TooFewPoints {
        /// Points the request carried.
        points: usize,
        /// The model's floor.
        min: usize,
    },
    /// The request's cloud has a NaN or infinite coordinate, or spans so
    /// far that its bounding box's squared diagonal overflows `f32`, so
    /// some squared distance between its points would not be finite. It
    /// was never enqueued.
    NonFiniteCloud,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::QueueFull { capacity } => {
                write!(
                    f,
                    "submission queue full (capacity {capacity}); request shed"
                )
            }
            ServeError::DeadlineExpired { waited, deadline } => write!(
                f,
                "deadline {}us expired after waiting {}us in queue",
                deadline.as_micros(),
                waited.as_micros()
            ),
            ServeError::ShuttingDown => write!(f, "engine is shutting down"),
            ServeError::WorkerLost => write!(f, "worker exited without responding"),
            ServeError::UnknownModel { index, models } => {
                write!(f, "unknown model index {index} (engine holds {models})")
            }
            ServeError::TooFewPoints { points, min } => {
                write!(
                    f,
                    "cloud has {points} points; the model needs at least {min}"
                )
            }
            ServeError::NonFiniteCloud => write!(
                f,
                "cloud has a non-finite coordinate or a non-finite squared extent"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ServeError::QueueFull { capacity: 8 };
        assert!(e.to_string().contains("capacity 8"));
        let e = ServeError::DeadlineExpired {
            waited: Duration::from_micros(1500),
            deadline: Duration::from_micros(1000),
        };
        assert!(e.to_string().contains("1000us"));
        assert!(e.to_string().contains("1500us"));
        let e = ServeError::UnknownModel {
            index: 7,
            models: 2,
        };
        assert!(e.to_string().contains('7'));
    }
}
