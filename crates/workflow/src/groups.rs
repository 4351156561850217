//! Execution-client grouping: the `MPI_Comm_split` analog.
//!
//! After mapping, the execution clients running one application's tasks
//! form that application's process group, ranked by task rank (§IV.C).
//! The group is the communicator the application routine uses for all
//! intra-application communication.

use insitu_fabric::ClientId;

/// One application's process group: `members[rank]` is the execution
/// client running that rank.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AppGroup {
    /// The color: the application id.
    pub app_id: u32,
    /// Clients ordered by rank.
    pub members: Vec<ClientId>,
}

impl AppGroup {
    /// Number of ranks.
    pub fn size(&self) -> u32 {
        self.members.len() as u32
    }

    /// Client of a rank.
    pub fn client_of(&self, rank: u32) -> ClientId {
        self.members[rank as usize]
    }
}
