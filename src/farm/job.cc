#include "farm/job.h"

namespace vtrans::farm {

std::string
toString(JobState state)
{
    switch (state) {
      case JobState::Pending:
        return "pending";
      case JobState::Done:
        return "done";
      case JobState::Failed:
        return "failed";
      case JobState::Shed:
        return "shed";
    }
    return "?";
}

std::string
Job::key() const
{
    std::string key = task.video + "/" + task.preset + "/c"
                      + std::to_string(task.crf) + "/r"
                      + std::to_string(task.refs);
    if (isChunk()) {
        key += "/g" + std::to_string(chunk_gop) + "/k"
               + std::to_string(chunk_index) + "@"
               + std::to_string(chunk_first) + "+"
               + std::to_string(chunk_frames);
    }
    if (isStitch()) {
        key += "/g" + std::to_string(chunk_gop) + "/stitch"
               + std::to_string(chunk_count);
    }
    return key;
}

} // namespace vtrans::farm
