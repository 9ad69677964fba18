namespace demo {
int Used(int x);
}  // namespace demo

int main(int argc, char**) { return demo::Used(argc) == 0; }
