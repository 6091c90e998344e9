// FanIn: join N asynchronous completions into one.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

#include "common/result.hpp"

namespace mgfs {

/// Counts `n` completions. Each call of a FanIn (copies share the count)
/// is one; the first error is kept, and the last call runs `done` with it
/// synchronously, never deferred, so the event order stays that of the
/// completions. `done` takes the Status or nothing at all.
template <typename Done>
class FanIn {
 public:
  FanIn(std::size_t n, Done done)
      : s_(std::make_shared<State>(State{n, Status{}, std::move(done)})) {}

  void operator()(const Status& st = Status{}) const {
    if (!st.ok() && s_->first.ok()) s_->first = st;
    if (--s_->left > 0) return;
    if constexpr (std::is_invocable_v<Done&, const Status&>) {
      s_->done(s_->first);
    } else {
      s_->done();
    }
  }

 private:
  struct State {
    std::size_t left;
    Status first;
    Done done;
  };
  std::shared_ptr<State> s_;
};

}  // namespace mgfs
