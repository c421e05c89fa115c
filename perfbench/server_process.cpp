#include "server_process.hpp"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common.hpp"

namespace perfbench {

namespace {

constexpr int kReadyTimeoutMs = 30000;
constexpr int kExitTimeoutMs = 30000;

/** Value of "key=<u64>" in @p line; false if absent. */
bool
field(const std::string &line, const std::string &key, std::uint64_t &out)
{
    const std::string tag = " " + key + "=";
    const std::size_t at = line.find(tag);
    if (at == std::string::npos)
        return false;
    out = std::strtoull(line.c_str() + at + tag.size(), nullptr, 10);
    return true;
}

} // namespace

ServerProcess::~ServerProcess()
{
    reap(true);
}

void
ServerProcess::reap(bool kill_first)
{
    if (pid_ > 0) {
        if (kill_first)
            ::kill(pid_, SIGKILL);
        int status = 0;
        while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
        }
        pid_ = -1;
    }
    if (out_ >= 0) {
        ::close(out_);
        out_ = -1;
    }
    if (!socket_.empty()) {
        ::unlink(socket_.c_str());
        socket_.clear();
    }
}

bool
ServerProcess::start(const std::string &binary,
                     const std::string &socket_path, std::string &error)
{
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
        error = "pipe failed";
        return false;
    }
    ::unlink(socket_path.c_str());
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        error = "fork failed";
        return false;
    }
    if (pid == 0) {
        // Die with the generator, however it ends.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent)
            ::_exit(127);
        ::dup2(fds[1], STDOUT_FILENO);
        const char *argv[] = {binary.c_str(), "--unix", socket_path.c_str(),
                              nullptr};
        ::execv(binary.c_str(), const_cast<char *const *>(argv));
        ::_exit(127);
    }
    ::close(fds[1]);
    pid_ = pid;
    out_ = fds[0];
    socket_ = socket_path;
    buffered_.clear();
    if (!readUntil("listening", kReadyTimeoutMs)) {
        error = "bfly_serve did not report listening: " + buffered_;
        reap(true);
        return false;
    }
    return true;
}

bool
ServerProcess::readUntil(const std::string &needle, int timeout_ms)
{
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    while (needle.empty() ||
           buffered_.find(needle) == std::string::npos) {
        const auto left = std::chrono::duration_cast<
            std::chrono::milliseconds>(deadline - Clock::now());
        if (left.count() <= 0)
            return false;
        pollfd pfd{out_, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
        if (ready < 0 && errno == EINTR)
            continue;
        if (ready <= 0)
            return false;
        char buf[4096];
        const ssize_t n = ::read(out_, buf, sizeof(buf));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return needle.empty(); // EOF
        buffered_.append(buf, static_cast<std::size_t>(n));
    }
    return true;
}

ProcSample
ServerProcess::sample() const
{
    ProcSample s;
    if (pid_ <= 0)
        return s;
    const std::string dir = "/proc/" + std::to_string(pid_);

    std::ifstream stat(dir + "/stat");
    std::string line;
    if (!std::getline(stat, line))
        return s;
    // Fields after "(comm)": state is field 3; utime 14, stime 15.
    const std::size_t close = line.rfind(')');
    if (close == std::string::npos)
        return s;
    std::istringstream rest(line.substr(close + 2));
    std::vector<std::string> f;
    for (std::string tok; rest >> tok;)
        f.push_back(tok);
    if (f.size() < 13)
        return s;
    const double ticks = static_cast<double>(::sysconf(_SC_CLK_TCK));
    s.cpuSeconds =
        (std::strtod(f[11].c_str(), nullptr) +
         std::strtod(f[12].c_str(), nullptr)) / ticks;

    std::ifstream status(dir + "/status");
    while (std::getline(status, line)) {
        const auto value = [&] {
            return std::strtod(line.c_str() + line.find(':') + 1, nullptr);
        };
        if (line.rfind("VmRSS:", 0) == 0)
            s.rssMb = value() / 1024.0;
        else if (line.rfind("VmHWM:", 0) == 0)
            s.hwmMb = value() / 1024.0;
        else if (line.rfind("Threads:", 0) == 0)
            s.threads = value();
    }
    s.ok = true;
    return s;
}

bool
ServerProcess::stop(ServerTotals &totals, std::string &error)
{
    if (pid_ <= 0) {
        error = "bfly_serve is not running";
        return false;
    }
    ::kill(pid_, SIGTERM);
    const bool eof = readUntil("", kExitTimeoutMs);
    reap(!eof);
    if (!eof) {
        error = "bfly_serve did not exit after SIGTERM";
        return false;
    }
    const std::size_t at = buffered_.find("bfly_serve: completed=");
    if (at == std::string::npos) {
        error = "bfly_serve printed no exit line: " + buffered_;
        return false;
    }
    const std::size_t eol = buffered_.find('\n', at);
    const std::string line = buffered_.substr(
        at, (eol == std::string::npos ? buffered_.size() : eol) - at);
    if (!field(line, "completed", totals.completed) ||
        !field(line, "failed", totals.failed) ||
        !field(line, "busy_sent", totals.busySent) ||
        !field(line, "partial", totals.partial) ||
        !field(line, "shed", totals.shed)) {
        error = "malformed bfly_serve exit line: " + line;
        return false;
    }
    return true;
}

} // namespace perfbench
